// Command favscan runs fault-injection campaigns — complete fault-space
// scans or sampling campaigns — against the built-in benchmarks or a fav32
// assembly file, and reports the metrics of both worlds: the (unfit)
// fault-coverage factor and the paper's extrapolated absolute failure
// counts.
//
// Usage:
//
//	favscan [flags] <benchmark | file.s>
//
// Examples:
//
//	favscan -variant sum+dmr bin_sem2          # full scan
//	favscan -sample 10000 -seed 3 sync2        # correct raw sampling
//	favscan -sample 10000 -biased sync2        # Pitfall-2 sampling
//	favscan -csv -outcomes sync2               # per-class outcome dump
//
// Distributed campaigns shard a full scan across machines: a coordinator
// serves leased work units, workers pull and execute them, and the final
// report is byte-identical to a local scan (placement equivalence):
//
//	favscan -serve :9321 -checkpoint s2.ckpt sync2   # coordinator
//	favscan -join host:9321                          # worker (any machine)
//
// The same -join works for a favserve campaign service; -submit hands it a
// campaign and prints the report.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"time"

	"faultspace"
	"faultspace/internal/campaign"
	"faultspace/internal/progs"
	"faultspace/internal/pruning"
	"faultspace/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "favscan:", err)
		os.Exit(1)
	}
}

// run executes one favscan invocation. Reports go to w (stdout); progress
// and checkpoint chatter go to errW (stderr), so a resumed campaign's
// stdout report stays byte-identical to an uninterrupted run's.
func run(args []string, w, errW io.Writer) error {
	fs := flag.NewFlagSet("favscan", flag.ContinueOnError)
	// What is scanned: the size flags, then -variant, -space, -objective.
	var sizes progs.Sizes
	sizes.RegisterFlags(fs)
	campaignFlags := " variant space objective"
	fs.VisitAll(func(f *flag.Flag) { campaignFlags += " " + f.Name })
	var (
		variant  = fs.String("variant", "baseline", progs.VariantUsage)
		sample   = fs.Int("sample", 0, "draw N samples instead of a full scan")
		seed     = fs.Int64("seed", 1, "PRNG seed for sampling")
		biased   = fs.Bool("biased", false, "sample classes uniformly (Pitfall 2) instead of raw coordinates")
		effect   = fs.Bool("effective", false, "sample the reduced population w' (Corollary 1)")
		strategy = fs.String("strategy", "fork", "experiment strategy: fork, or rerun (the brute-force reference)")
		predec   = fs.Bool("predecode", true, "execute via the pre-decoded dispatch stream (outcome-invariant; -predecode=false for the plain decoder)")
		space    = fs.String("space", "memory", "fault space: memory, registers (§VI-B), skip, pc, burst2 or burst4")
		objFl    = fs.String("objective", "", "attacker objective evaluated on every outcome: bypass, corrupt or dos (default none)")
		workers  = fs.Int("workers", 0, "parallel experiment executors (0 = GOMAXPROCS)")
		serve    = fs.String("serve", "", "coordinate a distributed scan: serve work units on this address")
		join     = fs.String("join", "", "work for the coordinator (favscan -serve) or campaign service (favserve) at this address")
		submit   = fs.String("submit", "", "submit the campaign to the favserve service at this address, wait and report")
		tenant   = fs.String("tenant", "", "tenant id attributed to -submit for fair scheduling (default \"default\")")
		workerID = fs.String("worker-id", "", "worker name in cluster statistics (default w<pid>)")
		unitSize = fs.Int("unit-size", 0, "classes per leased work unit (coordinator; default 256)")
		leaseTTL = fs.Duration("lease", 0, "work-unit lease TTL before reassignment (coordinator; default 10s)")
		outcomes = fs.Bool("outcomes", false, "dump per-class outcomes (full scans only)")
		saveTo   = fs.String("save", "", "write the full-scan result as a JSON archive to this file")
		loadFrom = fs.String("load", "", "analyze a previously saved scan archive instead of scanning")
		csv      = fs.Bool("csv", false, "emit tables as CSV")
		ckpt     = fs.String("checkpoint", "", "stream completed experiments into this crash-safe checkpoint file")
		resume   = fs.Bool("resume", false, "continue the campaign recorded in -checkpoint (skip completed classes)")
		progress = fs.Bool("progress", false, "print live progress (classes done, exp/s, ETA) to stderr")
		telem    = fs.String("telemetry", "", "write a JSON run manifest (identity, config, counters, timing) to this file on exit")
		traceFl  = fs.String("trace", "", "write the campaign span timeline as Chrome trace-event JSON (Perfetto-loadable) to this file on exit")
		metricFl = fs.String("metrics", "", "expose the telemetry registry in Prometheus text format on this address at /metrics, and /debug/pprof profiles next to it")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Validate enumerated flag values up front so a typo fails fast with
	// the valid options, not deep inside a campaign.
	spaceKind := faultspace.SpaceMemory
	if *space != "" {
		var err error
		if spaceKind, err = pruning.ParseKind(*space); err != nil {
			return err
		}
	}
	if err := validObjective(*objFl); err != nil {
		return err
	}
	strat, err := parseStrategy(*strategy)
	if err != nil {
		return err
	}
	if *resume && *ckpt == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	// The mode is the first of these that is set; every flag given must be
	// one that means something in it.
	const (
		executorFlags = " strategy predecode workers"
		reportFlags   = " outcomes save csv"
		fullScanFlags = reportFlags + " checkpoint resume progress telemetry trace metrics"
	)
	mode, allowed := "a local full scan", campaignFlags+executorFlags+fullScanFlags
	switch {
	case *serve != "":
		mode, allowed = "-serve", campaignFlags+fullScanFlags+" serve unit-size lease"
	case *join != "":
		mode, allowed = "-join", executorFlags+" join worker-id progress metrics"
	case *submit != "":
		mode, allowed = "-submit", campaignFlags+reportFlags+" submit tenant"
	case *loadFrom != "":
		mode, allowed = "-load", " load outcomes csv"
	case *sample > 0:
		mode, allowed = "-sample", campaignFlags+executorFlags+" sample seed biased effective csv progress metrics"
	}
	var misplaced error
	fs.Visit(func(f *flag.Flag) {
		if misplaced == nil && !strings.Contains(allowed+" ", " "+f.Name+" ") {
			misplaced = fmt.Errorf("-%s does not apply to %s", f.Name, mode)
		}
	})
	if misplaced != nil {
		return misplaced
	}
	if (mode == "-join" || mode == "-load") && fs.NArg() != 0 {
		return fmt.Errorf("%s takes no benchmark argument", mode)
	}

	if *join != "" {
		jopts := faultspace.JoinOptions{
			WorkerID:  *workerID,
			Workers:   *workers,
			Strategy:  strat,
			Predecode: *predec,
		}
		if *progress {
			jopts.Logf = func(format string, args ...any) {
				fmt.Fprintf(errW, format+"\n", args...)
			}
			jopts.Telemetry = faultspace.NewTelemetry()
		}
		if *metricFl != "" {
			if jopts.Telemetry == nil {
				jopts.Telemetry = faultspace.NewTelemetry()
			}
			stop, err := serveMetrics(*metricFl, jopts.Telemetry, errW)
			if err != nil {
				return err
			}
			defer stop()
		}
		err := faultspace.JoinScan(*join, jopts)
		printTelemetrySummary(errW, jopts.Telemetry)
		return err
	}

	if *loadFrom != "" {
		f, err := os.Open(*loadFrom)
		if err != nil {
			return err
		}
		defer f.Close()
		scan, err := faultspace.LoadScan(f)
		if err != nil {
			return err
		}
		a, err := faultspace.Analyze(scan)
		if err != nil {
			return err
		}
		if err := printAnalysis(w, a, *csv); err != nil {
			return err
		}
		if *outcomes {
			return printOutcomes(w, scan, *csv)
		}
		return nil
	}

	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("expected one benchmark name or assembly file")
	}

	prog, err := progs.Load(fs.Arg(0), *variant, sizes)
	if err != nil {
		return err
	}
	opts := faultspace.ScanOptions{
		Workers:   *workers,
		Strategy:  strat,
		Predecode: *predec,
		Space:     spaceKind,
		Objective: *objFl,
	}
	if *progress {
		opts.OnProgress = progressPrinter(errW)
	}
	// One registry serves all three observability surfaces: the run
	// manifest (-telemetry), the summary table (-progress) and, under
	// -serve, the campaign's status and /metrics on the serving address.
	// Telemetry never changes outcomes (invariant 10), so
	// attaching it unconditionally here would be harmless — but keeping
	// it nil unless asked for preserves the zero-overhead default.
	var reg *faultspace.Telemetry
	if *telem != "" || *progress || *traceFl != "" || *metricFl != "" {
		reg = faultspace.NewTelemetry()
		opts.Telemetry = reg
	}
	// Span tracing attaches a recorder to the registry. Locally the scan
	// records phase spans into it directly; under -serve the coordinator
	// reuses the same recorder and merges every worker's spans into it,
	// so the file written at exit is the whole fleet's timeline — and
	// this process is its "coordinator" scope, phase spans and marks alike.
	if *traceFl != "" {
		scope := "local"
		if *serve != "" {
			scope = "coordinator"
		}
		reg.EnableSpans(faultspace.NewTraceID(), scope, 0)
	}
	if *metricFl != "" {
		stop, err := serveMetrics(*metricFl, reg, errW)
		if err != nil {
			return err
		}
		defer stop()
	}

	if *sample > 0 {
		sr, err := faultspace.Sample(prog, faultspace.SampleOptions{
			ScanOptions: opts,
			N:           *sample,
			Seed:        *seed,
			Biased:      *biased,
			Effective:   *effect,
		})
		if err != nil {
			return err
		}
		if err := printSample(w, prog.Name, sr, *csv); err != nil {
			return err
		}
		printTelemetrySummary(errW, reg)
		return nil
	}

	// The manifest is stamped before the scan so StartedAt covers the
	// whole campaign, and written after it returns — the graceful SIGINT
	// path resolves through the same code, so an interrupted run still
	// leaves a (partial, marked Interrupted) manifest behind.
	var manifest *faultspace.RunManifest
	if *telem != "" {
		id, err := faultspace.CampaignIdentity(prog, opts)
		if err != nil {
			return err
		}
		manifest = &faultspace.RunManifest{
			Tool:      "favscan",
			StartedAt: time.Now(),
			Benchmark: prog.Name,
			Identity:  fmt.Sprintf("%x", id),
			Space:     spaceKind.String(),
			Strategy:  strat.String(),
			Workers:   *workers,
		}
		if manifest.Workers == 0 {
			manifest.Workers = runtime.GOMAXPROCS(0)
		}
	}

	if *ckpt != "" || *serve != "" {
		opts.Checkpoint = *ckpt
		opts.Resume = *resume
		// Graceful SIGINT: stop feeding experiments, let in-flight ones
		// finish, flush the checkpoint, then exit non-zero.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		defer context.AfterFunc(ctx, func() {
			fmt.Fprintln(errW, "favscan: interrupt — flushing checkpoint")
		})() // deregistered before stop cancels ctx
		opts.Context = ctx
	}

	var scan *faultspace.ScanResult
	if *submit != "" {
		scan, err = submitAndFetch(errW, *submit, *tenant, prog, opts)
	} else if *serve != "" {
		sopts := faultspace.ServeOptions{
			ScanOptions: opts,
			UnitSize:    *unitSize,
			LeaseTTL:    *leaseTTL,
			OnListen: func(addr string) {
				fmt.Fprintf(errW, "favscan: serving campaign on %s\n", addr)
			},
		}
		if *progress {
			sopts.OnProgress = nil
			sopts.OnClusterProgress = clusterProgressPrinter(errW)
		}
		scan, err = faultspace.ServeScan(prog, *serve, sopts)
	} else {
		scan, err = faultspace.Scan(prog, opts)
	}
	if *progress {
		printTelemetrySummary(errW, reg)
	}
	if manifest != nil {
		if scan != nil {
			manifest.Classes = len(scan.Space.Classes)
		}
		manifest.Interrupted = errors.Is(err, faultspace.ErrInterrupted)
		manifest.Finish(reg)
		if werr := manifest.WriteFile(*telem); werr != nil {
			fmt.Fprintf(errW, "favscan: telemetry manifest: %v\n", werr)
		} else {
			fmt.Fprintf(errW, "favscan: run manifest written to %s\n", *telem)
		}
	}
	// Like the manifest, the timeline is written on the interrupt path
	// too: a partial trace of an aborted campaign is exactly what you
	// load into Perfetto to see where it spent its time.
	if *traceFl != "" {
		if werr := writeTraceFile(*traceFl, reg); werr != nil {
			fmt.Fprintf(errW, "favscan: trace: %v\n", werr)
		} else {
			fmt.Fprintf(errW, "favscan: span timeline written to %s (load in ui.perfetto.dev)\n", *traceFl)
		}
	}
	if err != nil {
		if errors.Is(err, faultspace.ErrInterrupted) {
			if *ckpt == "" {
				return fmt.Errorf("scan interrupted")
			}
			return fmt.Errorf("scan interrupted; progress saved to %s — rerun with -resume to continue", *ckpt)
		}
		return err
	}
	if *saveTo != "" {
		f, err := os.Create(*saveTo)
		if err != nil {
			return err
		}
		if err := faultspace.SaveScan(f, scan); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "scan archive written to %s\n\n", *saveTo)
	}
	a, err := faultspace.Analyze(scan)
	if err != nil {
		return err
	}
	if err := printAnalysis(w, a, *csv); err != nil {
		return err
	}
	if *outcomes {
		return printOutcomes(w, scan, *csv)
	}
	return nil
}

// submitAndFetch ships the campaign to a favserve service, waits for a
// terminal state and fetches the report — which is byte-identical to a
// local scan's whether the service executed the campaign or answered
// from its archive (invariant 12).
func submitAndFetch(errW io.Writer, addr, tenant string, prog *faultspace.Program, opts faultspace.ScanOptions) (*faultspace.ScanResult, error) {
	info, err := faultspace.SubmitCampaign(addr, prog, opts, tenant)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(errW, "favscan: campaign %.12s %s (tenant %s)\n", info.ID, info.State, info.Tenant)
	if !info.Terminal() {
		if info, err = faultspace.WaitCampaign(addr, info.ID, 0, nil); err != nil {
			return nil, err
		}
	}
	switch {
	case info.State == "failed":
		return nil, fmt.Errorf("campaign failed: %s", info.Error)
	case info.State != "done":
		return nil, fmt.Errorf("campaign %s", info.State)
	}
	if info.Cached {
		fmt.Fprintln(errW, "favscan: served from the service archive — no experiments executed")
	}
	return faultspace.CampaignReport(addr, info.ID)
}

// validObjective validates the -objective flag value, failing fast with
// the valid names on a typo.
func validObjective(name string) error {
	if name == "" {
		return nil
	}
	for _, n := range faultspace.ObjectiveNames() {
		if n == name {
			return nil
		}
	}
	return fmt.Errorf("unknown objective %q (valid: %s)", name, strings.Join(faultspace.ObjectiveNames(), ", "))
}

// parseStrategy validates the -strategy flag value.
func parseStrategy(s string) (faultspace.Strategy, error) {
	switch s {
	case "fork":
		return faultspace.StrategyFork, nil
	case "rerun":
		return faultspace.StrategyRerun, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q (valid: fork, rerun)", s)
	}
}

// clusterProgressPrinter renders the coordinator's cluster progress
// stream on errW: one summary line per event plus one line per worker.
func clusterProgressPrinter(errW io.Writer) func(faultspace.ClusterProgress) {
	return func(p faultspace.ClusterProgress) {
		pct := 100.0
		if p.Total > 0 {
			pct = 100 * float64(p.Done) / float64(p.Total)
		}
		if p.Final {
			fmt.Fprintf(errW, "cluster scan finished: %d/%d classes (%.1f%%), %d merged this session in %s (%.0f exp/s), %d workers, %d reassigned, %d failure classes\n",
				p.Done, p.Total, pct, p.Session, p.Elapsed.Round(time.Millisecond), p.Rate, len(p.Workers), p.Reassignments, p.Failures())
			return
		}
		fmt.Fprintf(errW, "cluster: %d/%d classes (%.1f%%)  %.0f exp/s  ETA %s  leases %d  reassigned %d  failures %d\n",
			p.Done, p.Total, pct, p.Rate, p.ETA.Round(time.Second), p.OutstandingLeases, p.Reassignments, p.Failures())
		for _, ws := range p.Workers {
			fmt.Fprintf(errW, "  worker %s: %d experiments (%.0f exp/s), %d merged, %d leases\n",
				ws.ID, ws.Experiments, ws.Rate, ws.Merged, ws.Outstanding)
		}
	}
}

// serveMetrics exposes the registry at /metrics on addr for the
// duration of the run; the returned stop function closes the listener.
func serveMetrics(addr string, reg *faultspace.Telemetry, errW io.Writer) (func(), error) {
	bound, stop, err := faultspace.ServeMetrics(addr, reg)
	if err != nil {
		return nil, fmt.Errorf("-metrics: %w", err)
	}
	fmt.Fprintf(errW, "favscan: serving /metrics on %s\n", bound)
	return stop, nil
}

// writeTraceFile exports the registry's span recorder as Chrome
// trace-event JSON.
func writeTraceFile(path string, reg *faultspace.Telemetry) error {
	rec := reg.SpanRecorder()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := faultspace.WriteChromeTrace(f, rec.TraceID(), rec.Spans()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printTelemetrySummary renders the registry's final instrument snapshot
// as a table on the progress stream (stderr), keeping stdout reports
// byte-identical with and without telemetry. A nil registry prints
// nothing.
func printTelemetrySummary(errW io.Writer, reg *faultspace.Telemetry) {
	snap := reg.Snapshot()
	if len(snap.Counters) == 0 && len(snap.Gauges) == 0 && len(snap.Histograms) == 0 {
		return
	}
	tbl := &report.Table{
		Title:   "Telemetry",
		Headers: []string{"metric", "value"},
	}
	for _, name := range snap.CounterNames() {
		tbl.AddRow(name, snap.Counters[name])
	}
	for _, name := range snap.GaugeNames() {
		tbl.AddRow(name, snap.Gauges[name])
	}
	for _, name := range snap.HistogramNames() {
		h := snap.Histograms[name]
		var mean time.Duration
		if h.Count > 0 {
			mean = time.Duration(h.SumNs / int64(h.Count))
		}
		tbl.AddRow(name, fmt.Sprintf("n=%d mean=%s p50=%s p95=%s p99=%s max=%s",
			h.Count, mean.Round(time.Microsecond),
			time.Duration(h.P50Ns).Round(time.Microsecond),
			time.Duration(h.P95Ns).Round(time.Microsecond),
			time.Duration(h.P99Ns).Round(time.Microsecond),
			time.Duration(h.MaxNs).Round(time.Microsecond)))
	}
	fmt.Fprintln(errW)
	tbl.Render(errW)
}

// progressPrinter renders the scan's progress stream as single lines on
// errW: running counts while scanning, and a final summary line.
func progressPrinter(errW io.Writer) func(faultspace.Progress) {
	return func(p faultspace.Progress) {
		pct := 100.0
		if p.Total > 0 {
			pct = 100 * float64(p.Done) / float64(p.Total)
		}
		if p.Final {
			fmt.Fprintf(errW, "scan finished: %d/%d classes (%.1f%%), %d run this session in %s (%.0f exp/s), %d failure classes\n",
				p.Done, p.Total, pct, p.Session, p.Elapsed.Round(time.Millisecond), p.Rate, p.Failures())
			return
		}
		fmt.Fprintf(errW, "progress: %d/%d classes (%.1f%%)  %.0f exp/s  ETA %s  failures %d\n",
			p.Done, p.Total, pct, p.Rate, p.ETA.Round(time.Second), p.Failures())
	}
}

func printAnalysis(w io.Writer, a faultspace.Analysis, csv bool) error {
	tbl := &report.Table{
		Title:   fmt.Sprintf("Full fault-space scan: %s [%s space]", a.Name, a.Space),
		Headers: []string{"metric", "value"},
	}
	tbl.AddRow("runtime Δt (cycles)", a.RuntimeCycles)
	tbl.AddRow("memory Δm (bits)", a.MemoryBits)
	tbl.AddRow("fault-space size w", a.SpaceSize)
	tbl.AddRow("experiments (def/use classes)", a.Classes)
	tbl.AddRow("known No Effect (pruned)", a.KnownNoEffect)
	tbl.AddRow("failures, weighted (the paper's F)", a.FailWeight)
	tbl.AddRow("failures, unweighted classes", a.FailClasses)
	if a.AttackClasses > 0 || a.AttackWeight > 0 {
		tbl.AddRow("attack successes, weighted", a.AttackWeight)
		tbl.AddRow("attack successes, unweighted classes", a.AttackClasses)
	}
	tbl.AddRow("coverage, weighted", fmt.Sprintf("%.4f", a.CoverageWeighted))
	tbl.AddRow("coverage, unweighted (Pitfall 1)", fmt.Sprintf("%.4f", a.CoverageUnweighted))
	tbl.AddRow("coverage, activated-only", fmt.Sprintf("%.4f", a.CoverageActivatedOnly))
	if csv {
		if err := tbl.RenderCSV(w); err != nil {
			return err
		}
	} else if err := tbl.Render(w); err != nil {
		return err
	}

	out := &report.Table{
		Title:   "Outcome distribution (weighted over the full fault space)",
		Headers: []string{"outcome", "classes", "weighted", "share"},
	}
	for o := 0; o < campaign.NumOutcomes; o++ {
		if a.WeightedCounts[o] == 0 && a.ClassCounts[o] == 0 {
			continue
		}
		out.AddRow(campaign.Outcome(o).String(), a.ClassCounts[o], a.WeightedCounts[o],
			fmt.Sprintf("%.2f%%", 100*float64(a.WeightedCounts[o])/float64(a.SpaceSize)))
	}
	fmt.Fprintln(w)
	if csv {
		return out.RenderCSV(w)
	}
	return out.Render(w)
}

func printSample(w io.Writer, name string, sr *campaign.SampleResult, csv bool) error {
	tbl := &report.Table{
		Title: fmt.Sprintf("Sampling campaign: %s (mode %s, N=%d, seed=%d)",
			name, sr.Mode, sr.N, sr.Seed),
		Headers: []string{"metric", "value"},
	}
	tbl.AddRow("population", sr.Population)
	tbl.AddRow("experiments executed", sr.Experiments)
	tbl.AddRow("sampled failures", sr.Failures())
	tbl.AddRow("extrapolated failures (Corollary 2)", fmt.Sprintf("%.1f", sr.ExtrapolatedFailures()))
	if sr.Attacks > 0 {
		tbl.AddRow("sampled attack successes", sr.Attacks)
	}
	for o := 0; o < campaign.NumOutcomes; o++ {
		if sr.Counts[o] > 0 {
			tbl.AddRow("  "+campaign.Outcome(o).String(), sr.Counts[o])
		}
	}
	if csv {
		return tbl.RenderCSV(w)
	}
	return tbl.Render(w)
}

func printOutcomes(w io.Writer, scan *faultspace.ScanResult, csv bool) error {
	tbl := &report.Table{
		Title:   "Per-class outcomes",
		Headers: []string{"slot", "bit", "defCycle", "weight", "outcome"},
	}
	for i, c := range scan.Space.Classes {
		tbl.AddRow(c.Slot(), c.Bit, c.DefCycle, c.Weight(), scan.Outcomes[i].String())
	}
	fmt.Fprintln(w)
	if csv {
		return tbl.RenderCSV(w)
	}
	return tbl.Render(w)
}
