// Command bench is the repository's campaign benchmark: five workloads
// that drive the fault-injection engine the way its users do -- local
// scans as favscan runs them, submitted campaigns as favserve serves
// them -- and report end-to-end metrics with tracing off or, in a
// separate traced run, the metrics of every layer. Each run checks the
// reports it timed. See README.md.
//
// One process runs one workload once:
//
//	bash bench/run.sh -workload scan_mix -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -compare old-out new-out
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit code made explicit.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var cfg runConfig
	name := fl.String("workload", "", "workload to run: scan_fig2, scan_mix, scan_rerun, fleet_cold or service_hot")
	fl.Int64Var(&cfg.seed, "seed", 1, "seed the campaign list is generated from")
	seconds := fl.Float64("seconds", runSeconds, "how long to measure")
	trace := fl.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics, tracing off")
	fl.StringVar(&cfg.out, "out", "", "directory to write the result JSON (and a traced run's Chrome trace) into")
	fl.BoolVar(&cfg.updateGolden, "update-golden", false, "record the run's report digests as the workload's golden file")
	compare := fl.Bool("compare", false, "compare two -out directories given as arguments: old new")
	manifest := fl.Bool("manifest", false, "print BENCHMARK.json and exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	switch {
	case *manifest:
		if err := writeManifest(stdout); err != nil {
			return fail(err)
		}
		return 0
	case *compare:
		if fl.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two directories: old new")
			return 2
		}
		regressed, err := compareDirs(stdout, fl.Arg(0), fl.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	}

	cfg.w = findWorkload(*name)
	if cfg.w == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	cfg.budget = time.Duration(*seconds * float64(time.Second))
	cfg.traced = *trace != 0
	if !cfg.updateGolden {
		var err error
		if cfg.golden, err = loadGolden(cfg.w.name, cfg.seed); err != nil {
			return fail(err)
		}
	}
	// Scratch space stays inside the checkout, under the build directory.
	scratch := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(scratch, 0o777); err != nil {
		return fail(err)
	}
	var err error
	if cfg.dir, err = os.MkdirTemp(scratch, "run-"); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(cfg.dir)

	res, err := runWorkload(cfg, stderr)
	if err != nil {
		return fail(err)
	}
	res.print(stdout)
	fmt.Fprintln(stdout, res.lastLine())
	if !res.Correct {
		return 1
	}
	return 0
}

// runConfig is one run of one workload.
type runConfig struct {
	w            *workload
	seed         int64
	budget       time.Duration
	traced       bool
	tiny         bool // the tests' reduced lists
	dir          string
	out          string
	golden       *goldenFile
	updateGolden bool
}

// A run sets up at least minSetups times, and again and again until a
// twentieth of its budget is spent: a service that starts in 2 ms does so
// in anything from 1.7 to 8 ms, and the quartile of 40 such set-ups still
// moved by 15-19% between runs, that of 300 by 5-7%.
const (
	minSetups  = 5
	setupShare = 20
)

// runWorkload sets up, fixes the expected digests, warms up, runs the
// timed rounds and turns them into a result. An error means the run
// could not be made; failed campaigns are part of the result.
func runWorkload(cfg runConfig, stderr io.Writer) (*result, error) {
	res := &result{
		Workload: cfg.w.name, Seed: cfg.seed, Traced: cfg.traced,
		Seconds: cfg.budget.Seconds(), Env: stampEnvironment(),
		Metrics: make(map[string]value),
	}
	problem := func(format string, args ...any) {
		res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
	}

	var e *env
	var setups []float64
	for i, start := 0, time.Now(); i < minSetups || time.Since(start) < cfg.budget/setupShare; i++ {
		dir := filepath.Join(cfg.dir, fmt.Sprintf("setup%d", i))
		t0 := time.Now()
		next, err := setup(cfg.w, cfg.seed, cfg.tiny, dir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if e != nil {
			os.RemoveAll(e.dir)
		}
		e = next
	}
	if err := e.expect(cfg.seed, cfg.golden); err != nil {
		return nil, err
	}

	// One small untimed campaign through the workload's own path: the
	// first HTTP connection, the first checkpoint file, the first fleet
	// hand-shake are not what a round measures.
	warmup := e.camps[:1] // service_hot can only be served what is archived
	if e.w.kind != kindHot {
		hi, err := cfg.w.prepare(spec{Prog: "hi", Space: e.camps[0].Space, Baseline: -1})
		if err != nil {
			return nil, err
		}
		warmup = []*camp{hi}
	}
	warm, err := e.runRound(0, warmup, nil)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if warm.samples[0].err != nil {
		return nil, fmt.Errorf("warm-up: %w", warm.samples[0].err)
	}

	var tr *tracer
	budget := cfg.budget
	if cfg.traced {
		// Half the time goes to the alternating rounds, the rest to the
		// layer replays.
		tr, budget = newTracer(), cfg.budget/2
	}
	before := readHost()
	rounds, err := e.timedRounds(budget, tr)
	if err != nil {
		return nil, err
	}

	res.Rounds = len(rounds)
	for _, r := range rounds {
		if !r.traced() {
			res.RoundWall = append(res.RoundWall, r.wall.Seconds())
		}
		for _, s := range r.samples {
			res.Attempted++
			if s.err != nil {
				res.Failed++
				if len(res.Problems) < 20 {
					problem("round %d: %v", r.n, s.err)
				}
			}
		}
	}
	res.FailedShare = ratio(float64(res.Failed), float64(res.Attempted))
	for _, s := range rounds[0].samples {
		res.Stats.add(s.stats)
	}
	res.Campaigns = digests(e.camps)
	if cfg.golden != nil && res.Stats != cfg.golden.Stats {
		problem("simulated statistics %+v differ from the golden file's %+v", res.Stats, cfg.golden.Stats)
	}

	defs, measured := endToEnd, endToEndMetrics(setups, rounds)
	if cfg.traced {
		l := make(layers)
		e.fromRounds(l, rounds, tr, before)
		coverage, err := tr.reconcile(rounds)
		if err != nil {
			problem("%v", err)
		}
		l["telemetry.span_coverage_pct"] = single(100 * coverage)
		if over := l["telemetry.trace_overhead_pct"].Value; over > 5 {
			fmt.Fprintf(stderr, "bench: warning: tracing cost %.1f%% of the untraced round time\n", over)
		}
		if res.Failed == 0 {
			if err := e.replay(l); err != nil {
				problem("layer replay: %v", err)
			}
		}
		defs, measured = perLayer, l
		res.Spans = tr.totals()
	}
	for _, d := range defs {
		v := measured[d.Name]
		v.Unit = d.Unit
		res.Metrics[d.Name] = v
	}
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			problem("metric %s is %v", name, v.Value)
			v.Value = 0
			res.Metrics[name] = v
		}
	}
	res.Correct = len(res.Problems) == 0

	if cfg.updateGolden && res.Correct {
		path, err := writeGolden(res)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stderr, "bench: wrote %s\n", path)
	}
	if cfg.out != "" {
		if err := res.write(cfg.out, tr); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// endToEndMetrics computes the end-to-end metrics from untraced rounds.
// Every round runs the same list in the same order, so campaign i of one
// round and campaign i of the next are samples of one quantity, and so is
// what a round spends outside its campaigns (service_hot's start and
// drain). Each of these steps is summarised over the rounds on its own, by
// its better quartile, and the metrics are those of the round made of the
// typical steps: wall_s is their sum, campaign_ms_p50 the median of the
// typical campaigns, experiments_per_s the list's experiments over wall_s.
//
// Whole rounds are too coarse a sample for fleet_cold: a campaign there
// waits out the fleet's 200 ms idle poll, and now and then a second one,
// so a 1.9 s round moves by 0.2 s at a time and ten such rounds have no
// steady quartile. One step in ten that is off by a poll does not move
// that step's quartile.
//
// The better quartile, not the median: what disturbs a step -- another
// tenant of the machine -- mostly adds time, and it comes in stretches of
// 5-30 s, as long as a run, so that more than half the rounds of a run can
// be disturbed. With a hog thread switched on and off beside eight
// scan_mix runs, the medians of the runs spread by 19% and their better
// quartiles by 8%; on a quiet machine the two differ by 2-3%.
func endToEndMetrics(setups []float64, rounds []round) map[string]value {
	var wall, rate, p50, rest []float64
	var steps [][]float64 // per campaign of the list: its latency in every round, ms
	var classes uint64
	campaigns := 0
	for _, r := range rounds {
		if r.traced() {
			continue
		}
		if steps == nil {
			steps = make([][]float64, len(r.samples))
			classes = r.classes()
		}
		wall = append(wall, r.wall.Seconds())
		rate = append(rate, ratio(float64(r.classes()), r.wall.Seconds()))
		var latency []float64
		outside := r.wall
		for i, s := range r.samples {
			outside -= s.latency
			if s.err == nil {
				latency = append(latency, ms(s.latency))
				steps[i] = append(steps[i], ms(s.latency))
			}
		}
		rest = append(rest, outside.Seconds())
		p50 = append(p50, median(latency))
		campaigns += len(latency)
	}
	typical := make([]float64, len(steps))
	total := quantile(rest, 0.25)
	for i, xs := range steps {
		typical[i] = quantile(xs, 0.25)
		total += typical[i] / 1e3
	}

	// Samples, extremes and spread stay those of the whole rounds.
	w, x, latency := summarize(wall), summarize(rate), summarize(p50)
	w.Value, x.Value, latency.Value = total, ratio(float64(classes), total), median(typical)
	latency.Samples = campaigns
	return map[string]value{
		"wall_s": w, "experiments_per_s": x,
		"campaign_ms_p50": latency, "setup_s": better(setups, 0.25),
	}
}

// better summarises samples of one quantity by their quartile q: 0.25 where
// lower is better, 0.75 where higher is.
func better(xs []float64, q float64) value {
	v := summarize(xs)
	v.Value = quantile(xs, q)
	return v
}

func resultName(workload string, seed int64, traced bool) string {
	if traced {
		return fmt.Sprintf("%s-seed%d-layers.json", workload, seed)
	}
	return fmt.Sprintf("%s-seed%d.json", workload, seed)
}

// write stores the result, and a traced run's spans as Chrome trace-event
// JSON, in dir.
func (r *result) write(dir string, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, resultName(r.Workload, r.Seed, r.Traced)), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if tr == nil || len(tr.spans) == 0 {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.trace.json", r.Workload, r.Seed)))
	if err != nil {
		return err
	}
	return errors.Join(tr.writeChrome(f), f.Close())
}
