package faultspace

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"faultspace/internal/campaign"
	"faultspace/internal/cluster"
	"faultspace/internal/service"
)

// ClusterProgress is one event of a distributed campaign's progress
// stream: the regular scan progress plus per-worker statistics,
// outstanding leases and reassignment counts.
type ClusterProgress = cluster.Progress

// WorkerStat is one worker's slice of a ClusterProgress event.
type WorkerStat = cluster.WorkerStat

// ErrCoordinatorShutdown is returned by JoinScan when the last campaign
// it worked on was stopped — interrupted or cancelled — before it
// completed.
var ErrCoordinatorShutdown = cluster.ErrShutdown

// ErrCoordinatorUnreachable is returned by JoinScan when the server
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
}

// ServeScan runs a distributed full fault-space scan: it prepares the
// campaign locally, hosts it on an in-memory campaign service — no
// archive, no workers of its own — and serves that on addr to workers
// joining via JoinScan (or favscan -join) until every equivalence class
// has an outcome. The final result — and therefore the report — is
// byte-identical to a local Scan of the same program (invariant 8,
// placement equivalence). The address answers what favserve's does: the
// campaign's status and timeline under /v1/campaigns/<id>, /v1/status and
// /metrics.
//
// Checkpoint and Resume behave exactly as in Scan: merged outcomes
// stream into the crash-safe checkpoint, and a restarted coordinator
// resumes with no experiment redone; a checkpoint that can no longer be
// written ends the campaign with its error. Cancelling Context stops
// granting leases and returns the partial result with ErrInterrupted.
func ServeScan(p *Program, addr string, opts ServeOptions) (*ScanResult, error) {
	c, err := prepare(p, opts.ScanOptions)
	if err != nil {
		return nil, err
	}
	var prior map[int]campaign.Outcome
	finish := wrapScanErr
	if opts.Checkpoint != "" {
		ck, completed, err := opts.openCheckpoint(c.target, c.space, c.cfg)
		if err != nil {
			return nil, err
		}
		prior, finish = completed, ck.close
		c.cfg.OnResult, c.cfg.Context = ck.record, ck.ctx
	}
	svc, err := service.New(service.Options{UnitSize: opts.UnitSize, LeaseTTL: opts.LeaseTTL})
	if err != nil {
		return finish(nil, err)
	}
	wait, err := svc.Host(c.target, c.golden, c.space, c.cfg, opts.maxGolden(), prior, opts.OnClusterProgress)
	if err != nil {
		return finish(nil, err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		svc.Shutdown()
		return finish(nil, err)
	}
	if opts.OnListen != nil {
		opts.OnListen(ln.Addr().String())
	}
	stop := serve(ln, svc.Handler())

	res, scanErr := wait()
	// The service's drain: every worker that joined fetches its done or
	// shutdown notice and says hello once more, and is dismissed; on the
	// interrupt path in-flight units finish submitting first, so their
	// experiments are recorded — the cluster analogue of the local
	// graceful-interrupt semantics. The campaign is sealed before Shutdown
	// returns, so no late submission touches a closed checkpoint writer.
	svc.Shutdown()
	stop()
	return finish(res, scanErr)
}

// The server's read bounds: how long a connection may take to send its
// request header, to send the whole request, body included, and how long
// a kept-alive connection may sit idle between requests. Variables only
// so that their test need not wait them out.
var (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * cluster.MaxHold
)

// serve runs handler on ln until the returned stop is called; stop closes
// the listener and every connection and returns once Serve has. There is
// deliberately no write timeout: held ?wait= answers legitimately take up
// to cluster.MaxHold, and a hold starts only once the request is read.
func serve(ln net.Listener, handler http.Handler) (stop func()) {
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	return func() {
		srv.Close()
		<-done
	}
}

// ServeMetrics exposes the registry's snapshot in Prometheus text format
// at /metrics on addr, and the net/http/pprof profiles under
// /debug/pprof/ next to it, until the returned stop is called; bound is
// the address listened on. Profiling is as opt-in as the listener: no
// campaign server mounts it.
func ServeMetrics(addr string, reg *Telemetry) (bound string, stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("faultspace: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, reg.Snapshot(), nil)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return ln.Addr().String(), serve(ln, mux), nil
}

// JoinOptions parameterizes JoinScan: the worker's name, its local
// execution choices (Workers, Strategy, Predecode — outcome-invariant,
// free to differ across a fleet), retry backoff, Context (when cancelled
// the worker dies abruptly mid-unit without submitting — the crash the
// coordinator's lease expiry must absorb), Telemetry, the HTTP client and
// Logf.
type JoinOptions = cluster.WorkerOptions

// JoinScan makes this process a worker of the campaign service at addr —
// the one ServeScan (favscan -serve) starts for its campaign, or one
// started with ServeCampaigns (favserve). The service grants it a
// campaign; it rebuilds the campaign from the handshake — needing no
// local program knowledge — verifies the campaign identity, then pulls,
// executes and submits leased work units until the campaign ends, and
// asks for the next one. Requests are retried with exponential backoff; a
// worker whose campaign identity differs from the server's is rejected.
//
// JoinScan returns once the service dismisses the worker, as it drains —
// ServeScan's once its campaign is over: nil after campaigns that
// completed (or before working on any: a worker that arrives after the
// end is sent home at the handshake), and ErrCoordinatorShutdown when the
// last campaign it worked on was cut short. It returns ErrCoordinatorUnreachable when the server stays
// unreachable and ErrInterrupted when JoinOptions.Context is cancelled.
func JoinScan(addr string, opts JoinOptions) error {
	if err := cluster.Join(normalizeURL(addr), opts, nil); err != nil {
		return fmt.Errorf("faultspace: %w", err)
	}
	return nil
}

// normalizeURL accepts bare host:port coordinator addresses.
func normalizeURL(addr string) string {
	if strings.HasPrefix(addr, "http://") || strings.HasPrefix(addr, "https://") {
		return addr
	}
	return "http://" + addr
}
