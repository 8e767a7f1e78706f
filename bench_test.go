// Benchmark harness: one testing.B benchmark per table and figure of the
// paper (see DESIGN.md's experiment index), plus ablation benchmarks for
// the design choices called out there. Each benchmark regenerates its
// artifact from scratch per iteration and reports the key result values as
// custom metrics, so `go test -bench=. -benchmem` doubles as a full
// reproduction run.
package faultspace_test

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"faultspace"
	"faultspace/internal/asm"
	"faultspace/internal/campaign"
	"faultspace/internal/cluster"
	"faultspace/internal/experiments"
	"faultspace/internal/machine"
	"faultspace/internal/metrics"
	"faultspace/internal/progs"
	"faultspace/internal/pruning"
	"faultspace/internal/trace"
)

// benchSizes keeps the per-iteration cost of the campaign benchmarks
// moderate; favreport uses the full default sizes.
var benchSizes = experiments.Figure2Config{
	BinSemRounds: 2,
	SyncRounds:   2,
	SyncBufBytes: 32,
}

// BenchmarkTable1Poisson regenerates Table I: Poisson probabilities for
// k = 0..5 independent faults per benchmark run.
func BenchmarkTable1Poisson(b *testing.B) {
	var lambda float64
	for i := 0; i < b.N; i++ {
		t1, err := experiments.Table1(5)
		if err != nil {
			b.Fatal(err)
		}
		lambda = t1.Lambda
	}
	b.ReportMetric(lambda*1e13, "lambda-e13")
}

// BenchmarkFigure1Pruning regenerates the Figure 1 def/use pruning example
// (108 raw coordinates collapse to 8 experiments).
func BenchmarkFigure1Pruning(b *testing.B) {
	var experimentsLeft int
	for i := 0; i < b.N; i++ {
		f1, err := experiments.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		experimentsLeft = f1.Experiments
	}
	b.ReportMetric(float64(experimentsLeft), "experiments")
}

// BenchmarkFigure3Dilution regenerates the §IV Gedankenexperiment: both
// dilution cheats, full scans, and the invariant check (coverage inflated,
// failures unchanged).
func BenchmarkFigure3Dilution(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		d, err := experiments.Dilution(4, faultspace.ScanOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Verify(); err != nil {
			b.Fatal(err)
		}
		gain = d.CmpDFT.CoverageGainWeighted
	}
	b.ReportMetric(gain, "coverage-gain-pp")
}

// BenchmarkFigure2Coverage regenerates Figure 2 panels a/b/d/e: four full
// fault-space scans (bin_sem2/sync2 × baseline/SUM+DMR) with both
// accounting rules.
func BenchmarkFigure2Coverage(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		f2, err := experiments.Figure2(benchSizes, faultspace.ScanOptions{})
		if err != nil {
			b.Fatal(err)
		}
		ratio = f2.Sync2.Cmp.RatioWeighted
	}
	b.ReportMetric(ratio, "sync2-failure-ratio")
}

// BenchmarkFigure2Runtime regenerates Figure 2g: golden-run runtime and
// memory of all four benchmark variants (no fault injection).
func BenchmarkFigure2Runtime(b *testing.B) {
	specs := []progs.Spec{
		progs.BinSem2(benchSizes.BinSemRounds),
		progs.Sync2(benchSizes.SyncRounds, benchSizes.SyncBufBytes),
	}
	var cycles uint64
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			for _, build := range []func() (*asm.Program, error){spec.Baseline, spec.Hardened} {
				p, err := build()
				if err != nil {
					b.Fatal(err)
				}
				g, err := trace.Record(p.Name, machine.Config{RAMSize: p.RAMSize},
					p.Code, p.Image, 1<<22)
				if err != nil {
					b.Fatal(err)
				}
				cycles += g.Cycles
			}
		}
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles-per-suite")
}

// BenchmarkSectionIIICPruneStats regenerates the §III-C experiment-
// reduction statistics: raw fault-space size vs conducted experiments.
func BenchmarkSectionIIICPruneStats(b *testing.B) {
	p, err := progs.Sync2(benchSizes.SyncRounds, benchSizes.SyncBufBytes).Baseline()
	if err != nil {
		b.Fatal(err)
	}
	var reduction float64
	for i := 0; i < b.N; i++ {
		st, err := experiments.PruneStatsFor(p)
		if err != nil {
			b.Fatal(err)
		}
		reduction = st.ReductionFactor
	}
	b.ReportMetric(reduction, "reduction-x")
}

// BenchmarkPitfall2Sampling contrasts the correct raw-space sampler with
// the biased class-uniform sampler of Pitfall 2 on the same budget.
func BenchmarkPitfall2Sampling(b *testing.B) {
	p, err := progs.Sync2(benchSizes.SyncRounds, benchSizes.SyncBufBytes).Baseline()
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name   string
		biased bool
	}{{"raw", false}, {"biased", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := faultspace.Sample(p, faultspace.SampleOptions{
					N:      500,
					Seed:   int64(i + 1),
					Biased: mode.biased,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPitfall3Extrapolation regenerates the §V-C Corollary-2 table:
// extrapolated failure counts with confidence intervals from a sampling
// campaign, checked against the full-scan ground truth.
func BenchmarkPitfall3Extrapolation(b *testing.B) {
	p, err := progs.Sync2(benchSizes.SyncRounds, benchSizes.SyncBufBytes).Baseline()
	if err != nil {
		b.Fatal(err)
	}
	var estimate float64
	for i := 0; i < b.N; i++ {
		s, err := experiments.Sampling(p, 1000, int64(i+1), faultspace.ScanOptions{})
		if err != nil {
			b.Fatal(err)
		}
		estimate = s.Raw.FailEstimate
	}
	b.ReportMetric(estimate, "extrapolated-F")
}

// BenchmarkExtensionRegisterSpace regenerates the §VI-B extension: the
// bin_sem2 pair under the register fault model.
func BenchmarkExtensionRegisterSpace(b *testing.B) {
	spec := progs.BinSem2(benchSizes.BinSemRounds)
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RegisterSpace(spec, faultspace.ScanOptions{})
		if err != nil {
			b.Fatal(err)
		}
		ratio = r.Registers.RatioWeighted
	}
	b.ReportMetric(ratio, "register-failure-ratio")
}

// BenchmarkExtensionMultiFault regenerates the §III-A extension: the
// 96 single-fault + 4560 double-fault enumeration on one protected word.
func BenchmarkExtensionMultiFault(b *testing.B) {
	var fraction float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.MultiFault(faultspace.ScanOptions{})
		if err != nil {
			b.Fatal(err)
		}
		fraction = r.FailureFraction()
	}
	b.ReportMetric(100*fraction, "pair-failure-pct")
}

// BenchmarkExtensionMechanisms compares the two implemented hardening
// mechanisms (SUM+DMR vs TMR) on one benchmark pair under the paper's
// metric.
func BenchmarkExtensionMechanisms(b *testing.B) {
	specs := []progs.Spec{progs.BinSem2(benchSizes.BinSemRounds)}
	var tmrRatio float64
	for i := 0; i < b.N; i++ {
		m, err := experiments.Mechanisms(specs, faultspace.ScanOptions{})
		if err != nil {
			b.Fatal(err)
		}
		tmrRatio = m.Rows[0].TMR.RatioWeighted
	}
	b.ReportMetric(tmrRatio, "tmr-failure-ratio")
}

// --- Ablation benchmarks (DESIGN.md §8) ---

// scanBenchSizes are larger than benchSizes on purpose: the executor
// benchmark needs golden traces long enough that per-experiment
// simulation (not channel/classify overhead) dominates, as it does at
// realistic campaign sizes.
var scanBenchSizes = experiments.Figure2Config{
	BinSemRounds: 8,
	SyncRounds:   8,
	SyncBufBytes: 64,
}

// BenchmarkFullScan times the complete full-scan pipeline per executor
// configuration on the two Figure-2 kernels and their SUM+DMR-hardened
// variants. It is an ablation for working on the executor, not a tracked
// ruler — bench/ is (see bench/README.md) — and writes nothing. The
// hardened rows are here because nearly every experiment on them is
// detected, corrected and rejoins the golden run a correction path late:
// they report shifted/op, the experiments composed from such a shifted
// match, and a fork row fails when that count is zero — so a silently
// disabled any-cycle match fails `make bench-smoke` by a count, not a
// timing. The +trace rows rerun the accelerated configuration with span
// tracing enabled, which must stay within noise of the blind one.
func BenchmarkFullScan(b *testing.B) {
	benches := []struct {
		name     string
		build    func() (*asm.Program, error)
		hardened bool
	}{
		{"bin_sem2", progs.BinSem2(scanBenchSizes.BinSemRounds).Baseline, false},
		{"sync2", progs.Sync2(scanBenchSizes.SyncRounds, scanBenchSizes.SyncBufBytes).Baseline, false},
		{"bin_sem2+sum+dmr", progs.BinSem2(benchSizes.BinSemRounds).Hardened, true},
		{"sync2+sum+dmr", progs.Sync2(benchSizes.SyncRounds, benchSizes.SyncBufBytes).Hardened, true},
	}
	configs := []struct {
		name      string
		strat     faultspace.Strategy
		predecode bool
		trace     bool
	}{
		{"rerun", faultspace.StrategyRerun, false, false},
		{"fork", faultspace.StrategyFork, false, false},
		{"fork+pre", faultspace.StrategyFork, true, false},
		{"fork+pre+trace", faultspace.StrategyFork, true, true},
	}
	for _, bench := range benches {
		p, err := bench.build()
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range configs {
			b.Run(bench.name+"/"+c.name, func(b *testing.B) {
				// The scans run instrumented: telemetry is designed to be
				// free (see BenchmarkTelemetryOverhead), and its counters
				// say how the configuration reached its timing.
				reg := faultspace.NewTelemetry()
				if c.trace {
					reg.EnableSpans(faultspace.NewTraceID(), "bench", 0)
				}
				opts := faultspace.ScanOptions{Strategy: c.strat, Predecode: c.predecode, Telemetry: reg}
				classes := 0
				for i := 0; i < b.N; i++ {
					res, err := faultspace.Scan(p, opts)
					if err != nil {
						b.Fatal(err)
					}
					classes = len(res.Outcomes)
					if c.trace {
						// Drain per iteration, as a fleet worker does per
						// submission; otherwise the recorder fills and later
						// iterations measure the cheaper drop path instead
						// of span recording.
						reg.SpanRecorder().Drain()
					}
				}
				counters := reg.Snapshot().Counters
				b.ReportMetric(float64(classes), "classes")
				b.ReportMetric(float64(counters["ladder.reconverged"])/float64(b.N), "reconverged/op")
				b.ReportMetric(float64(counters["ladder.loop_proofs"])/float64(b.N), "loop-proofs/op")
				if bench.hardened {
					shifted := counters["ladder.reconverged_shifted"]
					b.ReportMetric(float64(shifted)/float64(b.N), "shifted/op")
					if shifted == 0 && c.strat == faultspace.StrategyFork {
						b.Fatalf("no experiment of %d reconverged shifted: the any-cycle golden match is off", classes)
					}
				}
			})
		}
	}
}

// BenchmarkAblationForkVsRerun compares the two experiment-execution
// strategies on the same full scan: forking children off a monotone
// golden cursor vs re-executing the golden prefix for every experiment.
func BenchmarkAblationForkVsRerun(b *testing.B) {
	p, err := progs.BinSem2(benchSizes.BinSemRounds).Baseline()
	if err != nil {
		b.Fatal(err)
	}
	for _, strat := range []faultspace.Strategy{faultspace.StrategyFork, faultspace.StrategyRerun} {
		b.Run(strat.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := faultspace.Scan(p, faultspace.ScanOptions{Strategy: strat}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationParallelScan measures the scan with 1 worker vs
// GOMAXPROCS workers.
func BenchmarkAblationParallelScan(b *testing.B) {
	p, err := progs.BinSem2(benchSizes.BinSemRounds).Baseline()
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(w.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := faultspace.Scan(p, faultspace.ScanOptions{Workers: w.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationGranularity quantifies the def/use granularity choice:
// per-bit classes (sound: outcomes can differ per bit) vs hypothetical
// per-byte grouping (what several published tools use). It reports both
// class counts; the per-byte variant under-counts experiments by ~8x at
// the cost of conflating distinct outcomes.
func BenchmarkAblationGranularity(b *testing.B) {
	p, err := progs.Sync2(benchSizes.SyncRounds, benchSizes.SyncBufBytes).Baseline()
	if err != nil {
		b.Fatal(err)
	}
	t := faultspace.Target(p)
	golden, fs, err := t.Prepare(1 << 22)
	if err != nil {
		b.Fatal(err)
	}
	var perBit, perByte int
	for i := 0; i < b.N; i++ {
		fs2, err := pruning.Build(golden)
		if err != nil {
			b.Fatal(err)
		}
		perBit = len(fs2.Classes)
		seen := make(map[[2]uint64]struct{}, len(fs2.Classes))
		for _, c := range fs2.Classes {
			seen[[2]uint64{c.UseCycle, c.Bit / 8}] = struct{}{}
		}
		perByte = len(seen)
	}
	_ = fs
	b.ReportMetric(float64(perBit), "classes-per-bit")
	b.ReportMetric(float64(perByte), "classes-per-byte")
}

// BenchmarkClusterScan measures a distributed full scan over loopback
// HTTP with 1, 2 and 4 workers against the same campaign, exposing the
// coordination overhead and the scaling of leased work units (DESIGN.md
// §4b). Compare with BenchmarkAblationParallelScan for the in-process
// parallelism baseline.
func BenchmarkClusterScan(b *testing.B) {
	p, err := progs.BinSem2(benchSizes.BinSemRounds).Baseline()
	if err != nil {
		b.Fatal(err)
	}
	for _, strat := range []faultspace.Strategy{faultspace.StrategyFork, faultspace.StrategyRerun} {
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("strategy=%s/workers=%d", strat, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					addrCh := make(chan string, 1)
					var wg sync.WaitGroup
					wg.Add(workers)
					go func() {
						addr := <-addrCh
						for j := 0; j < workers; j++ {
							go func(j int) {
								defer wg.Done()
								if err := faultspace.JoinScan(addr, faultspace.JoinOptions{
									WorkerID: fmt.Sprintf("w%d", j),
									Strategy: strat,
								}); err != nil {
									b.Error(err)
								}
							}(j)
						}
					}()
					_, err := faultspace.ServeScan(p, "127.0.0.1:0", faultspace.ServeOptions{
						UnitSize: 16,
						OnListen: func(addr string) { addrCh <- addr },
					})
					if err != nil {
						b.Fatal(err)
					}
					wg.Wait()
				}
			})
		}
	}
}

// BenchmarkServiceSubmitToReport measures the hand-off path of the
// campaign service: an idle loopback service with one local worker, one
// small sort1 campaign per op from SubmitCampaign to the fetched report,
// as favscan -submit does it. The worker's handshake and the client's
// status request are held at the service, so an op is the campaign's own
// work plus a few round trips. With three ops or more (make bench-smoke
// runs three in make check) it fails when the median op takes half the
// shortest timed wait the path ever had, the worker's 200 ms idle poll:
// a sleep put back on the path costs every op at least that, whereas a
// scheduling or GC hiccup on a loaded machine costs one op and leaves
// the median alone. The time itself is only reported. It writes nothing:
// the service keeps its results in memory.
func BenchmarkServiceSubmitToReport(b *testing.B) {
	const bound = cluster.AskSpacing / 2
	p, err := progs.Sort1(6).Baseline()
	if err != nil {
		b.Fatal(err)
	}
	intr := make(chan struct{})
	listening := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- faultspace.ServeCampaigns("127.0.0.1:0", faultspace.CampaignServiceOptions{
			LocalWorkers: 1,
			Interrupt:    intr,
			OnListen:     func(a string) { listening <- a },
		})
	}()
	var addr string
	select {
	case addr = <-listening:
	case err := <-done:
		b.Fatalf("ServeCampaigns: %v", err)
	}
	defer func() {
		close(intr)
		if err := <-done; err != nil {
			b.Errorf("ServeCampaigns: %v", err)
		}
	}()

	ops := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A timeout budget of its own gives each op a campaign the service
		// has not seen, so every op runs on the fleet.
		opts := faultspace.ScanOptions{TimeoutFactor: 2 + float64(i)/1024}
		start := time.Now()
		info, err := faultspace.SubmitCampaign(addr, p, opts, "")
		if err != nil {
			b.Fatal(err)
		}
		if info.Cached {
			b.Fatalf("op %d was answered from memory; it must run on the fleet", i)
		}
		if !info.Terminal() {
			if info, err = faultspace.WaitCampaign(addr, info.ID, 0, nil); err != nil {
				b.Fatal(err)
			}
		}
		if info.State != "done" {
			b.Fatalf("op %d ended %s: %s", i, info.State, info.Error)
		}
		if _, err := faultspace.CampaignReport(addr, info.ID); err != nil {
			b.Fatal(err)
		}
		ops = append(ops, time.Since(start))
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/campaign")
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	if median := ops[len(ops)/2]; len(ops) >= 3 && median > bound {
		b.Fatalf("the median of %d campaigns took %v from submission to report, want under %v: a timed wait is back on the hand-off path",
			len(ops), median, bound)
	}
}

// --- Component performance benchmarks ---

// BenchmarkSimulatorThroughput measures raw simulator speed in
// instructions per second on the hardened sync2 golden run.
func BenchmarkSimulatorThroughput(b *testing.B) {
	p, err := progs.Sync2(3, 64).Hardened()
	if err != nil {
		b.Fatal(err)
	}
	m, err := machine.New(machine.Config{RAMSize: p.RAMSize}, p.Code, p.Image)
	if err != nil {
		b.Fatal(err)
	}
	reset := m.Snapshot()
	b.ResetTimer()
	var total uint64
	for i := 0; i < b.N; i++ {
		m.Restore(reset)
		if st := m.Run(1 << 22); st != machine.StatusHalted {
			b.Fatalf("status %v", st)
		}
		total += m.Cycles()
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkAssembler measures assembling the full sync2 hardened source
// (parse, harden expansion, two-pass assembly).
func BenchmarkAssembler(b *testing.B) {
	spec := progs.Sync2(3, 64)
	for i := 0; i < b.N; i++ {
		if _, err := spec.Hardened(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPruningBuild measures def/use analysis of a hardened kernel
// golden trace.
func BenchmarkPruningBuild(b *testing.B) {
	p, err := progs.Sync2(3, 64).Hardened()
	if err != nil {
		b.Fatal(err)
	}
	golden, err := trace.Record(p.Name, machine.Config{RAMSize: p.RAMSize}, p.Code, p.Image, 1<<22)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pruning.Build(golden); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExperimentExecution measures the cost of a single fault-
// injection experiment (snapshot restore + run to completion + classify).
func BenchmarkExperimentExecution(b *testing.B) {
	p, err := progs.BinSem2(2).Baseline()
	if err != nil {
		b.Fatal(err)
	}
	t := faultspace.Target(p)
	golden, fs, err := t.Prepare(1 << 22)
	if err != nil {
		b.Fatal(err)
	}
	if len(fs.Classes) == 0 {
		b.Fatal("no classes")
	}
	cls := fs.Classes[len(fs.Classes)/2]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := campaign.RunSingle(t, golden, campaign.Config{}, cls.Slot(), cls.Bit); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMetrics measures the pure-math metric layer (coverage,
// extrapolation, Poisson, Wilson) — it should be effectively free next to
// the campaigns.
func BenchmarkMetrics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := metrics.Coverage(48, 128); err != nil {
			b.Fatal(err)
		}
		if _, err := metrics.ExtrapolateFailures(1<<20, 37, 1000); err != nil {
			b.Fatal(err)
		}
		if _, err := metrics.PoissonPMF(1.3e-13, 2); err != nil {
			b.Fatal(err)
		}
		if _, err := metrics.WilsonInterval(37, 1000, metrics.Z95); err != nil {
			b.Fatal(err)
		}
	}
}
