package service

import (
	"time"

	"faultspace/internal/cluster"
	"faultspace/internal/cluster/lease"
	"faultspace/internal/telemetry"
)

// The tests read a campaign's host through the views and steps below,
// under the names the tests have always used for them.

// Snapshot returns the campaign's progress now.
func (h *host) Snapshot() cluster.Progress { return h.snapshot() }

// TraceID returns the trace ID of the campaign's timeline.
func (h *host) TraceID() telemetry.TraceID { return h.spans.TraceID() }

// Timeline returns the campaign's timeline so far and how many spans its
// recorder dropped.
func (h *host) Timeline() ([]telemetry.Span, uint64) { return h.spans.Spans(), h.spans.Dropped() }

// Leave takes a worker out of the campaign, as its next hello does.
func (h *host) Leave(workerID string) { h.step(lease.Event{Kind: lease.Leave, Worker: workerID}) }

// WaitDrained is the drain retire waits out.
func (h *host) WaitDrained(timeout time.Duration) bool { return h.drain(timeout) }

// Seal stops result merging, as retire does after the drain.
func (h *host) Seal() { h.step(lease.Event{Kind: lease.Seal}) }
