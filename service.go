package faultspace

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"faultspace/internal/cluster"
	"faultspace/internal/service"
	"faultspace/internal/telemetry"
)

// CampaignServiceOptions parameterizes ServeCampaigns.
type CampaignServiceOptions struct {
	// ArchiveDir is the directory of the content-addressed result
	// archive. Empty keeps results in memory only.
	ArchiveDir string
	// MaxArchiveBytes caps the archive size; least-recently-used entries
	// are evicted beyond it (0 = unbounded).
	MaxArchiveBytes int64
	// MaxActive bounds concurrently running campaigns (default 2);
	// MaxQueued bounds waiting ones across all tenants (default 16,
	// beyond it submissions get 429 + Retry-After).
	MaxActive int
	MaxQueued int
	// UnitSize and LeaseTTL parameterize each campaign's coordinator.
	UnitSize int
	LeaseTTL time.Duration
	// LocalWorkers starts this many in-process fleet workers against the
	// service's own address, so a single favserve process can execute
	// campaigns without external workers joining.
	LocalWorkers int
	// WorkerOptions configures the local fleet workers (strategy,
	// parallelism, predecode). WorkerID, Telemetry and Logf are managed by
	// the service. The drain dismisses the local workers as it dismisses
	// any other: told shutdown at their next lease, they say hello once
	// more, are sent home and return.
	WorkerOptions JoinOptions
	// Interrupt, when closed, drains the service gracefully: new
	// submissions are rejected with 503, running campaigns are
	// interrupted and their leases drained, and the archive is flushed.
	// A channel, not a context, because bench/ compiles against it.
	Interrupt <-chan struct{}
	// Telemetry, when non-nil, receives service-level metrics, served in
	// /v1/status and /metrics.
	Telemetry *Telemetry
	// OnListen, when non-nil, receives the bound listen address once the
	// service is serving — useful with ":0" addresses.
	OnListen func(addr string)
	// Logf, when non-nil, receives service life-cycle log lines.
	Logf func(format string, args ...any)
}

// CampaignInfo is one campaign's state as reported by the service's
// lifecycle endpoints: State is one of "queued", "running", "done",
// "cancelled", "failed"; Cached reports that the campaign completed
// without executing a single experiment, its report served from the
// result archive.
type CampaignInfo = service.CampaignStatus

// ServeCampaigns runs a campaign service on addr until Interrupt is
// closed: a long-lived, multi-tenant coordinator that accepts campaign
// submissions (SubmitCampaign or favscan -submit), runs them against a
// shared worker fleet (JoinScan, favscan -join, or in-process
// LocalWorkers) with per-tenant fair scheduling, and archives every
// report content-addressed by the campaign identity hash. A duplicate
// submission — same program image, fault-space kind and timeout budget —
// is answered from the archive byte-identically without executing a
// single experiment (invariant 12).
func ServeCampaigns(addr string, opts CampaignServiceOptions) error {
	svc, err := service.New(service.Options{
		Dir:             opts.ArchiveDir,
		MaxArchiveBytes: opts.MaxArchiveBytes,
		MaxActive:       opts.MaxActive,
		MaxQueued:       opts.MaxQueued,
		UnitSize:        opts.UnitSize,
		LeaseTTL:        opts.LeaseTTL,
		Telemetry:       opts.Telemetry,
		Logf:            opts.Logf,
	})
	if err != nil {
		return fmt.Errorf("faultspace: %w", err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("faultspace: %w", err)
	}
	bound := ln.Addr().String()
	if opts.OnListen != nil {
		opts.OnListen(bound)
	}
	stop := serve(ln, svc.Handler())

	var fleet sync.WaitGroup
	for i := 0; i < opts.LocalWorkers; i++ {
		fleet.Add(1)
		go func(n int) {
			defer fleet.Done()
			w := opts.WorkerOptions
			w.WorkerID = fmt.Sprintf("local%d", n)
			w.Logf = opts.Logf
			// Point each assigned campaign's engine counters at that
			// campaign's own registry, keeping them isolated.
			err := cluster.Join("http://"+bound, w, func(spec cluster.Spec) *telemetry.Registry {
				return svc.CampaignTelemetry(spec.Identity)
			})
			if err != nil && opts.Logf != nil {
				opts.Logf("faultspace: local worker %d: %v", n, err)
			}
		}(i)
	}

	if opts.Interrupt != nil {
		<-opts.Interrupt
	} else {
		// No interrupt channel: serve until the process dies.
		select {}
	}
	// Drain: cancel queued work, interrupt running campaigns, let their
	// coordinators answer the fleet with shutdown — the local workers
	// included, whose next hello is their exit notice — flush the archive.
	// The local workers are then on their way out, and the server stays up
	// until they are.
	svc.Shutdown()
	fleet.Wait()
	stop()
	return nil
}

// SubmitCampaign submits a campaign to a service started with
// ServeCampaigns (or favserve). The client simulates nothing: it ships
// the campaign's inputs — program, machine, fault-space kind, timeout
// budget, objective — as a self-contained spec whose identity hash covers
// exactly those, and the service records the golden run, prunes the fault
// space and re-verifies the identity before running it. A golden run that
// does not halt within MaxGoldenCycles is therefore not an error here: the
// campaign ends "failed" with the trace error in its status, and nothing
// is archived. The budget is not part of the identity, so an archived
// campaign is served whatever it says. tenant attributes the submission
// for fair scheduling ("" = "default"). The returned info reports the
// admission state: an archived identity comes back "done" (Cached)
// immediately, Done and Total the report's class count.
func SubmitCampaign(addr string, p *Program, opts ScanOptions, tenant string) (CampaignInfo, error) {
	var info CampaignInfo
	kind, cfg, err := opts.resolve()
	if err != nil {
		return info, err
	}
	spec, err := cluster.NewSpec(Target(p), kind, cfg, opts.maxGolden(), 0)
	if err != nil {
		return info, fmt.Errorf("faultspace: %w", err)
	}
	u := normalizeURL(addr) + "/v1/campaigns"
	if tenant != "" {
		u += "?tenant=" + url.QueryEscape(tenant)
	}
	body, err := serviceCall(context.Background(), "submit", http.MethodPost, u, cluster.EncodeSpec(spec))
	if err != nil {
		return info, err
	}
	if err := json.Unmarshal(body, &info); err != nil {
		return info, fmt.Errorf("faultspace: submit: %w", err)
	}
	return info, nil
}

// serviceCall sends one lifecycle request to a campaign service and
// returns the response body; any status but 200 or 202 is an error
// naming what was asked and carrying the service's message, and so is a
// body above the wire bound (a report at the largest) — never a report
// cut short.
func serviceCall(ctx context.Context, what, method, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("faultspace: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("faultspace: %w", err)
	}
	defer resp.Body.Close()
	data, err := cluster.ReadBounded(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("faultspace: %s: %w", what, err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("faultspace: %s: HTTP %d: %s", what, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return data, nil
}

// CampaignState fetches one campaign's current state from a service.
func CampaignState(addr, id string) (CampaignInfo, error) {
	return campaignState(context.Background(), addr, id, "")
}

// campaignState fetches a campaign's state; query is "" or a ?wait=
// hold request.
func campaignState(ctx context.Context, addr, id, query string) (CampaignInfo, error) {
	var info CampaignInfo
	body, err := serviceCall(ctx, "status", http.MethodGet,
		normalizeURL(addr)+"/v1/campaigns/"+url.PathEscape(id)+query, nil)
	if err != nil {
		return info, err
	}
	if err := json.Unmarshal(body, &info); err != nil {
		return info, fmt.Errorf("faultspace: status: %w", err)
	}
	return info, nil
}

// WaitCampaign waits until a campaign reaches a terminal state or
// interrupt is closed. It asks the service to hold the status request
// until the campaign ends, so it returns as the campaign does; spacing
// (default 500ms) is only the least time between two asks when an answer
// comes back early, as from a service that does not hold requests.
// interrupt is a channel, not a context, because bench/ compiles against
// this signature.
func WaitCampaign(addr, id string, spacing time.Duration, interrupt <-chan struct{}) (CampaignInfo, error) {
	if spacing <= 0 {
		spacing = 500 * time.Millisecond
	}
	// The one adapter left from a channel to the context the requests
	// take.
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	if interrupt != nil {
		go func() {
			select {
			case <-interrupt:
				stop()
			case <-ctx.Done():
			}
		}()
	}
	query := cluster.HoldQuery(http.DefaultClient)
	for {
		asked := time.Now()
		info, err := campaignState(ctx, addr, id, query)
		if ctx.Err() != nil {
			return info, fmt.Errorf("faultspace: %w", ErrInterrupted)
		}
		if err != nil {
			return info, err
		}
		if info.Terminal() {
			return info, nil
		}
		if !cluster.Pace(ctx, asked, spacing) {
			return info, fmt.Errorf("faultspace: %w", ErrInterrupted)
		}
	}
}

// CampaignReport fetches a completed campaign's scan report from a
// service and reconstructs it for analysis. The bytes served are exactly
// what SaveScan of a live scan would have produced — whether the service
// executed the campaign or answered from its archive (invariant 12).
// They are decoded where they were received, through a *bytes.Reader (see
// LoadScan).
func CampaignReport(addr, id string) (*ScanResult, error) {
	report, err := serviceCall(context.Background(), "report", http.MethodGet,
		normalizeURL(addr)+"/v1/campaigns/"+url.PathEscape(id)+"/report", nil)
	if err != nil {
		return nil, err
	}
	return LoadScan(bytes.NewReader(report))
}
