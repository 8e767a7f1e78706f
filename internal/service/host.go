package service

import (
	"cmp"
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"faultspace/internal/campaign"
	"faultspace/internal/cluster"
	"faultspace/internal/cluster/lease"
	"faultspace/internal/pruning"
	"faultspace/internal/telemetry"
	"faultspace/internal/trace"
)

// timelineCapacity bounds a campaign's merged timeline: the host's own
// spans plus every span workers ship back with submissions — four times a
// single recorder's default, since the host aggregates a whole fleet.
// Beyond capacity the newest spans are dropped and the loss is
// self-described via the recorder's drop counter in the campaign's status.
const timelineCapacity = 4 * telemetry.DefaultSpanCapacity

// host is one running campaign's lease host: its lease.State, the one
// mutex around Step and the step's effects — OnResult, spans and
// counters, held asks woken, one timer at the next deadline, progress.
// The worker-protocol handlers step it directly once route has found it;
// the service's mutex, when held, is always taken first.
type host struct {
	result campaign.Result // Target, Golden, Space and Identity; wait adds the rest
	spec   []byte          // the handshake frame: the entry's spec, stamped at launch

	onResult   func(class int, o campaign.Outcome)
	onProgress func(cluster.Progress)
	interval   time.Duration

	mu       sync.Mutex
	state    *lease.State
	start    time.Time
	lastEmit time.Time
	// complete is closed once every class has an outcome; wake is closed
	// and replaced when a step says so; asks counts every lease ask until
	// its answer is out; timer ticks the state at the earliest lease
	// deadline (armed).
	complete chan struct{}
	wake     chan struct{}
	asks     cluster.Holds
	timer    *time.Timer
	armed    time.Time

	// The campaign timeline: the host's own spans plus the spans workers
	// ship back with submissions. rampedUp latches the one-shot
	// campaign.rampup span covering campaign start to the first lease
	// grant — the time-to-first-work a fleet operator cares about, and
	// otherwise a dark region at the head of every timeline.
	spans    *telemetry.SpanRecorder
	rampedUp bool

	// Instruments of the campaign's registry; all nil (no-op) without one.
	telGranted    *telemetry.Counter
	telExpired    *telemetry.Counter
	telSubmits    *telemetry.Counter
	telDuplicates *telemetry.Counter
	telHeartbeats *telemetry.Counter
	telWorkers    *telemetry.Gauge
	telGap        *telemetry.Histogram
	telLeaseDur   *telemetry.Histogram
}

// launch makes a running campaign's host, hands the campaign to the fleet
// and starts the campaign's one runner, which waits for its end, archives
// a complete one's report and retires it; the runner's wait is returned,
// for Host's caller. launch stamps the entry's spec, once, with what the
// admitted one leaves to the service — the class count it built, its
// lease TTL and the trace ID of the campaign's timeline — and the stamped
// spec is the handshake every worker is granted. prior holds restored
// outcomes by class index; only the remaining classes are carved into
// units, so a resumed campaign redoes no work. Of cfg the host keeps
// OnResult and ProgressInterval.
func (s *Service) launch(e *entry, t campaign.Target, g *trace.Golden, fs *pruning.FaultSpace, cfg campaign.Config,
	prior map[int]campaign.Outcome, onProgress func(cluster.Progress)) (func() (*campaign.Result, error), error) {
	todo, err := campaign.Remaining(len(fs.Classes), prior)
	if err != nil {
		return nil, err
	}
	// Carve units in injection order: class indices are (Slot, Bit)-sorted
	// by construction, and this stable sort turns that into an explicit
	// contract of the carving rather than an accident of the pruning
	// layer — fork-strategy workers batch each leased unit along rung
	// boundaries and rely on ascending injection cycles for their monotone
	// golden cursor (internal/campaign forkProvider).
	sort.SliceStable(todo, func(i, j int) bool {
		return fs.Classes[todo[i]].Slot() < fs.Classes[todo[j]].Slot()
	})
	var units [][]int
	for len(todo) > 0 {
		n := min(s.opts.UnitSize, len(todo))
		units = append(units, todo[:n])
		todo = todo[n:]
	}

	reg := e.reg
	h := &host{
		result:     campaign.Result{Target: t, Golden: g, Space: fs, Identity: e.id},
		onResult:   cfg.OnResult,
		onProgress: onProgress,
		interval:   cmp.Or(cfg.ProgressInterval, campaign.DefaultProgressInterval),
		start:      time.Now(),
		complete:   make(chan struct{}),
		wake:       make(chan struct{}),
		asks: cluster.Holds{
			Held: reg.Gauge("cluster.lease_held"),
			Took: reg.Histogram("cluster.lease_hold"),
		},
		telGranted:    reg.Counter("cluster.leases_granted"),
		telExpired:    reg.Counter("cluster.leases_expired"),
		telSubmits:    reg.Counter("cluster.submissions"),
		telDuplicates: reg.Counter("cluster.duplicate_submits"),
		telHeartbeats: reg.Counter("cluster.heartbeats"),
		telWorkers:    reg.Gauge("cluster.active_workers"),
		telGap:        reg.Histogram("cluster.heartbeat_gap"),
		telLeaseDur:   reg.Histogram("cluster.lease_duration"),
	}
	// A registry with span tracing enabled (the favscan -trace serve path)
	// contributes its recorder, so local and fleet spans merge into one
	// timeline under the registry's trace ID.
	if h.spans = reg.SpanRecorder(); h.spans == nil {
		h.spans = telemetry.NewSpanRecorder(e.spec.TraceID, "coordinator", timelineCapacity)
	}
	h.state = lease.New(h.start, s.opts.LeaseTTL, len(fs.Classes), prior, units)
	h.mu.Lock()
	if h.state.Remaining() == 0 {
		h.finishLocked(h.start)
	}
	// Held asks wait on the wake signal, so the end of the campaign's
	// context must be a step of its own, not only something wait notices.
	context.AfterFunc(e.ctx, func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		h.interruptLocked()
	})
	h.emitLocked(false)
	h.mu.Unlock()

	s.mu.Lock()
	e.spec.Classes, e.spec.LeaseTTL, e.spec.TraceID = uint64(len(fs.Classes)), s.opts.LeaseTTL, h.spans.TraceID()
	h.spec = cluster.EncodeSpec(e.spec)
	e.host, e.spans = h, h.spans
	s.wakeLocked() // the campaign is assignable: release the parked fleet
	s.mu.Unlock()
	s.opts.Logf("service: campaign %s (%s) started", e.spec.Name, e.idHex[:12])
	wait := sync.OnceValues(func() (*campaign.Result, error) { return h.wait(e.ctx) })
	go func() {
		defer s.wg.Done()
		res, err := wait()
		s.finish(e, h, res, err)
	}()
	return wait, nil
}

func (h *host) step(ev lease.Event) lease.Effects {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stepLocked(ev)
}

// stepLocked applies one event at the current time and its effects.
func (h *host) stepLocked(ev lease.Event) lease.Effects {
	now := time.Now()
	if ev.Kind == lease.Tick {
		h.armed = time.Time{}
	}
	eff := h.state.Step(now, ev)
	if h.onResult != nil {
		for _, m := range eff.Merged {
			h.onResult(m.Class, campaign.Outcome(m.Outcome))
		}
	}
	switch {
	case ev.Kind == lease.Ask && eff.Reply.Status == lease.Granted:
		h.telGranted.Inc()
		if !h.rampedUp {
			h.rampedUp = true
			h.record("campaign.rampup", "campaign start to first lease grant", h.start, now)
		}
	case ev.Kind == lease.Submit && eff.Reply.Err == nil:
		h.telSubmits.Inc()
		h.telDuplicates.Add(uint64(len(ev.Entries) - len(eff.Merged)))
		if h.interval < 0 || now.Sub(h.lastEmit) >= h.interval {
			h.emitLocked(false)
		}
	case ev.Kind == lease.Heartbeat:
		h.telHeartbeats.Inc()
	}
	for _, n := range eff.Notes {
		h.observe(now, n)
	}
	if eff.Done {
		h.finishLocked(now)
	}
	if eff.Wake {
		close(h.wake)
		h.wake = make(chan struct{})
	}
	h.armLocked(eff.Next)
	return eff
}

// observe turns a step's note into counters, marks and spans.
func (h *host) observe(now time.Time, n lease.Note) {
	switch n.Kind {
	case lease.Joined:
		h.telWorkers.Add(1)
		if n.Rejoin {
			h.spans.Mark("worker.joined", n.Worker+" (rejoined)")
		} else {
			h.spans.Mark("worker.joined", n.Worker)
		}
	case lease.Left:
		h.telWorkers.Add(-1)
		h.spans.Mark("worker.left", n.Worker)
	case lease.Expired:
		h.telExpired.Inc()
		h.spans.Mark("lease.expired", fmt.Sprintf("unit %d reclaimed from %s", n.Unit, n.Worker))
	case lease.Closed:
		// Grant → full merge is the host's view of the unit's life.
		h.record("unit.lease", fmt.Sprintf("unit %d (%d classes) by %s", n.Unit, n.Classes, n.Worker), n.At, now)
		h.telLeaseDur.Observe(now.Sub(n.At))
	case lease.Beat:
		h.telGap.Observe(n.Gap)
	}
}

// armLocked keeps the one timer at the next lease deadline.
func (h *host) armLocked(next time.Time) {
	if next.Equal(h.armed) {
		return
	}
	h.armed = next
	switch {
	case next.IsZero():
		if h.timer != nil {
			h.timer.Stop()
		}
	case h.timer == nil:
		h.timer = time.AfterFunc(time.Until(next), func() { h.step(lease.Event{Kind: lease.Tick}) })
	default:
		h.timer.Reset(time.Until(next))
	}
}

// finishLocked closes complete once, recording the campaign root span.
func (h *host) finishLocked(now time.Time) {
	select {
	case <-h.complete:
	default:
		h.record("campaign", h.result.Target.Name+" "+h.result.Space.Kind.String(), h.start, now)
		close(h.complete)
	}
}

// record adds one of the host's own spans, from start to end, to the
// campaign timeline. Its scope is always "coordinator", whoever's
// recorder the timeline is.
func (h *host) record(name, detail string, start, end time.Time) {
	h.spans.Add(telemetry.Span{Scope: "coordinator", Name: name, Detail: detail, Start: start, Dur: end.Sub(start)})
}

// interruptLocked stops a campaign that still has classes to run and
// reports ErrInterrupted; a complete campaign stays complete, however its
// context ends.
func (h *host) interruptLocked() error {
	if h.state.Remaining() == 0 {
		return nil
	}
	h.stepLocked(lease.Event{Kind: lease.Interrupt})
	return campaign.ErrInterrupted
}

// wait blocks until every class has an outcome (returning the complete
// result) or ctx — the entry's — ends (returning the partial result with
// campaign.ErrInterrupted). A campaign complete by then is complete,
// however its context ends. It sends the final progress event; late
// in-flight submissions keep merging, and reaching OnResult, until the
// seal. The campaign's one runner calls it once.
func (h *host) wait(ctx context.Context) (*campaign.Result, error) {
	select {
	case <-h.complete:
	case <-ctx.Done():
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	err := h.interruptLocked()
	h.emitLocked(true)
	res := h.result
	res.Outcomes, res.Pending = h.state.Outcomes(), h.state.Remaining()
	return &res, err
}

// drain blocks until every worker that ever joined has left again and
// every lease ask has its answer out, or the timeout has passed, and
// reports which: the bounded grace period a finished or interrupted
// campaign gives its fleet to fetch the done/shutdown answer and say
// hello once more. It waits in the one hold loop, on a Holds of its own.
func (h *host) drain(timeout time.Duration) (drained bool) {
	var waits cluster.Holds
	waits.Park(context.Background(), time.Now().Add(timeout), func() <-chan struct{} {
		h.mu.Lock()
		defer h.mu.Unlock()
		if !h.state.Drained() {
			return h.wake
		}
		idle := h.asks.Idle()
		select {
		case <-idle:
			drained = true
			return nil
		default:
			return idle
		}
	})()
	return drained
}

func (h *host) snapshot() cluster.Progress {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state.Progress(time.Now(), false)
}

func (h *host) emitLocked(final bool) {
	if h.onProgress == nil {
		return
	}
	now := time.Now()
	h.lastEmit = now
	h.onProgress(h.state.Progress(now, final))
}
