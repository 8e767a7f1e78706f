package faultspace

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"faultspace/internal/campaign"
	"faultspace/internal/checkpoint"
	"faultspace/internal/cluster"
)

// ClusterProgress is one event of a distributed campaign's progress
// stream: the regular scan progress plus per-worker statistics,
// outstanding leases and reassignment counts.
type ClusterProgress = cluster.Progress

// WorkerStat is one worker's slice of a ClusterProgress event.
type WorkerStat = cluster.WorkerStat

// ErrCoordinatorShutdown is returned by JoinScan when the coordinator
// announced an interrupt-driven shutdown before the campaign completed.
var ErrCoordinatorShutdown = cluster.ErrShutdown

// ErrCoordinatorUnreachable is returned by JoinScan when the coordinator
// stayed unreachable through the worker's bounded retry budget — e.g.
// after the coordinator process was killed outright.
var ErrCoordinatorUnreachable = cluster.ErrUnreachable

// ServeOptions parameterizes ServeScan. The embedded ScanOptions keep
// their meaning; Workers and Strategy are ignored (the coordinator
// executes no experiments itself).
type ServeOptions struct {
	ScanOptions
	// UnitSize is the number of equivalence classes per leased work unit
	// (default cluster.DefaultUnitSize).
	UnitSize int
	// LeaseTTL is how long a leased unit survives without heartbeat or
	// submission before reassignment (default cluster.DefaultLeaseTTL).
	LeaseTTL time.Duration
	// OnClusterProgress receives cluster progress events (per-worker
	// experiments/s, outstanding leases, reassignments). It supersedes
	// ScanOptions.OnProgress, which is ignored in cluster mode.
	OnClusterProgress func(ClusterProgress)
	// OnListen, when non-nil, receives the bound listen address once the
	// coordinator is serving — useful with ":0" addresses.
	OnListen func(addr string)
	// DrainTimeout bounds how long ServeScan waits after completion for
	// workers to fetch their done notice and deregister (default 3s).
	DrainTimeout time.Duration
	// Pprof mounts net/http/pprof profiling endpoints under /debug/pprof/
	// on the coordinator's HTTP handler. Off by default: profiling a
	// public coordinator address is opt-in.
	Pprof bool
}

// ServeScan runs a distributed full fault-space scan: it prepares the
// campaign locally, then serves leased work units to workers joining via
// JoinScan (or favscan -join) on addr until every equivalence class has
// an outcome. The final result — and therefore the report — is
// byte-identical to a local FullScan of the same program (invariant 8,
// placement equivalence).
//
// Checkpoint and Resume behave exactly as in Scan: merged outcomes
// stream into the crash-safe checkpoint, and a restarted coordinator
// resumes with no experiment redone. Interrupt stops granting leases and
// returns the partial result with ErrInterrupted.
func ServeScan(p *Program, addr string, opts ServeOptions) (*ScanResult, error) {
	t := Target(p)
	kind, err := opts.space()
	if err != nil {
		return nil, fmt.Errorf("faultspace: %w", err)
	}
	golden, fs, err := t.PrepareSpace(kind, opts.maxGolden())
	if err != nil {
		return nil, fmt.Errorf("faultspace: %w", err)
	}
	cfg, err := opts.campaignConfig()
	if err != nil {
		return nil, fmt.Errorf("faultspace: %w", err)
	}

	var w *checkpoint.Writer
	var prior map[int]campaign.Outcome
	if opts.Checkpoint != "" {
		if w, prior, err = opts.openCheckpoint(t, fs, cfg); err != nil {
			return nil, err
		}
	}

	copts := cluster.Options{
		UnitSize:         opts.UnitSize,
		LeaseTTL:         opts.LeaseTTL,
		MaxGoldenCycles:  opts.maxGolden(),
		OnProgress:       opts.OnClusterProgress,
		ProgressInterval: opts.ProgressInterval,
		Interrupt:        opts.Interrupt,
		Telemetry:        opts.Telemetry,
		Pprof:            opts.Pprof,
	}
	if w != nil {
		copts.OnResult = func(ci int, o campaign.Outcome) { w.Append(ci, uint8(o)) }
	}
	coord, err := cluster.NewCoordinator(t, golden, fs, cfg, copts, prior)
	if err != nil {
		if w != nil {
			w.Close()
		}
		return nil, fmt.Errorf("faultspace: %w", err)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		if w != nil {
			w.Close()
		}
		return nil, fmt.Errorf("faultspace: %w", err)
	}
	if opts.OnListen != nil {
		opts.OnListen(ln.Addr().String())
	}
	srv := &http.Server{Handler: coord.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	res, scanErr := coord.Wait()
	// Let the workers fetch their done/shutdown notice before tearing the
	// server down; workers deregister via /v1/leave as they exit. On
	// the interrupt path this also lets in-flight units finish submitting,
	// so their experiments are recorded — the cluster analogue of the
	// local graceful-interrupt semantics.
	drain := opts.DrainTimeout
	if drain == 0 {
		drain = 3 * time.Second
	}
	coord.WaitDrained(drain)
	// Close the listener and connections, then seal the coordinator so no
	// late handler can touch a closed checkpoint writer.
	srv.Close()
	<-serveErr
	coord.Seal()
	if w != nil {
		// Close flushes buffered records — including on the interrupt
		// path, which makes a SIGINT-killed coordinator resumable.
		if cerr := w.Close(); cerr != nil && scanErr == nil {
			return nil, fmt.Errorf("faultspace: %w", cerr)
		}
	}
	if scanErr != nil {
		if errors.Is(scanErr, campaign.ErrInterrupted) {
			return res, fmt.Errorf("faultspace: %w", scanErr)
		}
		return nil, fmt.Errorf("faultspace: %w", scanErr)
	}
	return res, nil
}

// JoinOptions parameterizes JoinScan.
type JoinOptions struct {
	// WorkerID names this worker in coordinator statistics (default
	// "w<pid>").
	WorkerID string
	// Workers is the number of parallel experiment executors (default
	// GOMAXPROCS).
	Workers int
	// Strategy selects this worker's execution strategy (default
	// StrategyFork); strategies may differ freely across the cluster.
	Strategy Strategy
	// LadderInterval is StrategyFork's rung spacing (0 auto-tunes from
	// the golden-trace length).
	LadderInterval uint64
	// Predecode enables the simulator's pre-decoded dispatch stream on
	// this worker's machines. Outcome-invariant and local to this worker.
	Predecode bool
	// Interrupt, when closed, makes the worker die abruptly mid-unit
	// without submitting — the crash the coordinator's lease expiry must
	// absorb.
	Interrupt <-chan struct{}
	// Logf, when non-nil, receives worker life-cycle log lines.
	Logf func(format string, args ...any)
	// Telemetry, when non-nil, collects this worker's campaign metrics
	// (experiments, outcome timings, machine-pool reuse). Outcome-
	// invariant, exactly as in ScanOptions.
	Telemetry *Telemetry
}

// JoinScan joins a coordinator started with ServeScan (or favscan
// -serve) as a worker: it rebuilds the campaign from the handshake —
// needing no local program knowledge — verifies the campaign identity,
// then pulls, executes and submits leased work units until the campaign
// completes. Requests are retried with exponential backoff; a worker
// whose campaign identity differs from the coordinator's is rejected.
func JoinScan(addr string, opts JoinOptions) error {
	wopts := cluster.WorkerOptions{
		ID:             opts.WorkerID,
		Workers:        opts.Workers,
		Strategy:       opts.Strategy,
		LadderInterval: opts.LadderInterval,
		Predecode:      opts.Predecode,
		Interrupt:      opts.Interrupt,
		Logf:           opts.Logf,
		Telemetry:      opts.Telemetry,
	}
	if err := cluster.Join(normalizeURL(addr), wopts); err != nil {
		if errors.Is(err, campaign.ErrInterrupted) {
			return fmt.Errorf("faultspace: %w", campaign.ErrInterrupted)
		}
		return fmt.Errorf("faultspace: %w", err)
	}
	return nil
}

// normalizeURL accepts bare host:port coordinator addresses.
func normalizeURL(addr string) string {
	if len(addr) >= 7 && (addr[:7] == "http://" || (len(addr) >= 8 && addr[:8] == "https://")) {
		return addr
	}
	return "http://" + addr
}
