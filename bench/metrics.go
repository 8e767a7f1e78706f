package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runSeconds is how long one run measures: BENCHMARK.json's run_seconds
// and the default of -seconds.
const runSeconds = 20

// metricDef declares one metric: BENCHMARK.json is generated from these
// tables (bench -manifest), and a run emits exactly these names.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. failed_share is not among them because a gated metric must
// never be 0: failures are the run's attempted/failed counts, and the
// comparator rejects any rise. CPU time is host.cpu_s of the traced run:
// on fleet_cold, where it is mostly polling, its median moved by 31%
// between two sets of ten runs of one commit, more than any bound allows.
// The bounds are the largest allowed: whole runs slow down by 10-45% when
// the sandbox's other tenants are busy (see README.md).
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"experiments_per_s", "1/s", "higher", 0.25},
	{"campaign_ms_p50", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics of single layers, from the traced run. The
// layer is the package name before the first dot. A metric whose layer is
// not on a workload's path reads 0 there.
var perLayer = []metricDef{
	{"asm.assemble_ms_p50", "ms", "lower", 0},

	{"machine.plain_minstr_per_s", "Minstr/s", "higher", 0},
	{"machine.predecode_minstr_per_s", "Minstr/s", "higher", 0},
	{"machine.ladder_capture_us", "us", "lower", 0},
	{"machine.rung_restore_us", "us", "lower", 0},
	{"machine.fork_us", "us", "lower", 0},
	{"machine.ladder_pages_stored", "count", "lower", 0},
	{"machine.loop_probe_ns", "ns", "lower", 0},

	{"trace.record_ms_p50", "ms", "lower", 0},
	{"trace.record_mcycles_per_s", "Mcycles/s", "higher", 0},

	{"pruning.build_ms.memory", "ms", "lower", 0},
	{"pruning.build_ms.registers", "ms", "lower", 0},
	{"pruning.build_ms.skip", "ms", "lower", 0},
	{"pruning.build_ms.pc", "ms", "lower", 0},
	{"pruning.build_ms.burst2", "ms", "lower", 0},
	{"pruning.build_ms.burst4", "ms", "lower", 0},
	{"pruning.build_mclasses_per_s", "Mclasses/s", "higher", 0},

	{"campaign.prepare_ms_p50", "ms", "lower", 0},
	{"campaign.scan_ms_p50", "ms", "lower", 0},
	{"campaign.us_per_experiment", "us", "lower", 0},
	{"campaign.parallel_efficiency", "ratio", "higher", 0},
	{"campaign.experiments", "count", "lower", 0},
	{"campaign.fork_children", "count", "lower", 0},
	{"campaign.prefix_cycles_saved", "count", "higher", 0},
	{"campaign.rung_restores", "count", "lower", 0},
	{"campaign.reconverged", "count", "higher", 0},
	{"campaign.loop_proofs", "count", "higher", 0},
	{"campaign.shortcut_share", "ratio", "higher", 0},

	{"checkpoint.append_ns", "ns", "lower", 0},
	{"checkpoint.sync_ms_p50", "ms", "lower", 0},
	{"checkpoint.close_ms_p50", "ms", "lower", 0},
	{"checkpoint.load_ms_p50", "ms", "lower", 0},
	{"checkpoint.bytes_per_class", "B/class", "lower", 0},

	{"archive.encode_ms_p50", "ms", "lower", 0},
	{"archive.encode_mb_per_s", "MB/s", "higher", 0},
	{"archive.decode_ms_p50", "ms", "lower", 0},
	{"archive.decode_mb_per_s", "MB/s", "higher", 0},
	{"archive.bytes_per_class", "B/class", "lower", 0},

	{"cluster.spec_encode_us", "us", "lower", 0},
	{"cluster.spec_decode_us", "us", "lower", 0},
	{"cluster.unit_codec_us", "us", "lower", 0},
	{"cluster.rebuild_ms_p50", "ms", "lower", 0},
	{"cluster.lease_rtt_ms_p50", "ms", "lower", 0},
	{"cluster.lease_rtt_ms_p99", "ms", "lower", 0},
	{"cluster.submit_rtt_ms_p50", "ms", "lower", 0},
	{"cluster.unit_scan_ms_p50", "ms", "lower", 0},
	{"cluster.worker_wait_ms_p50", "ms", "lower", 0},
	{"cluster.units_per_campaign", "count", "lower", 0},

	{"service.submit_ms_p50", "ms", "lower", 0},
	{"service.queue_ms_p50", "ms", "lower", 0},
	{"service.status_poll_us_p50", "us", "lower", 0},
	{"service.report_fetch_ms_p50", "ms", "lower", 0},
	{"service.store_open_ms", "ms", "lower", 0},
	{"service.store_get_us_p50", "us", "lower", 0},
	{"service.store_put_ms_p50", "ms", "lower", 0},
	{"service.rejected", "count", "lower", 0},

	{"analysis.analyze_us_p50", "us", "lower", 0},

	{"telemetry.trace_overhead_pct", "%", "lower", 0},
	{"telemetry.span_coverage_pct", "%", "higher", 0},

	{"client.campaign_ms_p90", "ms", "lower", 0},
	{"client.campaign_ms_max", "ms", "lower", 0},

	{"host.cpu_s", "s", "lower", 0},
	{"host.peak_rss_mb", "MB", "lower", 0},
	{"host.alloc_mb", "MB", "lower", 0},
	{"host.gc_pause_ms", "ms", "lower", 0},
	{"host.cpu_utilisation", "ratio", "higher", 0},
}

// writeManifest prints BENCHMARK.json.
func writeManifest(w io.Writer) error {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []named  `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, named{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// value is one measured metric. Value summarises Samples measurements:
// for an end-to-end metric the round made of each step's better quartile
// (see endToEndMetrics), for a per-layer timing their median, for a count
// or a rate the total. Min, Max and Spread describe the same samples -- for
// an end-to-end metric the whole rounds -- Spread being the interquartile
// range as a share of the median.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Spread  float64 `json:"spread"`
}

// summarize makes a value from samples: their median, extremes and spread.
func summarize(xs []float64) value {
	lo, hi := minMax(xs)
	return value{Value: median(xs), Samples: len(xs), Min: lo, Max: hi, Spread: spread(xs)}
}

// single is a value measured once.
func single(x float64) value { return value{Value: x, Samples: 1, Min: x, Max: x} }

// environment is stamped on every result, so that two results can be
// told apart by more than their numbers.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GitCommit  string `json:"git_commit"`
	Time       string `json:"time"`
}

func stampEnvironment() environment {
	e := environment{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPUModel: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GitCommit: "unknown", Time: time.Now().UTC().Format(time.RFC3339),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// The checkout a driver runs in is not a git repository; the commit
	// is then unknown, which is what the stamp says.
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		e.GitCommit = strings.TrimSpace(string(out))
	}
	return e
}

// result is what one run of one workload produced: the -out JSON.
type result struct {
	Workload  string      `json:"workload"`
	Seed      int64       `json:"seed"`
	Traced    bool        `json:"traced"`
	Seconds   float64     `json:"seconds"`
	Env       environment `json:"environment"`
	Correct   bool        `json:"correct"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	// FailedShare is failed / attempted campaigns; anything but 0 is a
	// failed run.
	FailedShare float64 `json:"failed_share"`
	Rounds      int     `json:"rounds"`
	// RoundWall is the wall time of every untraced round, in order, so that
	// a disturbed stretch of a run can be told from a slow program.
	RoundWall []float64 `json:"round_wall_s"`
	// Stats are the simulated statistics of one round.
	Stats simStats `json:"simulated"`
	// Campaigns are the report digests of the list, in order.
	Campaigns []goldenCampaign     `json:"campaigns"`
	Metrics   map[string]value     `json:"metrics"`
	Spans     map[string]spanTotal `json:"spans,omitempty"`
	Problems  []string             `json:"problems,omitempty"`
}

// defs are the metrics a run of this kind emits.
func (r *result) defs() []metricDef {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// print writes the human-readable table of a result.
func (r *result) print(w io.Writer) {
	kind := "end-to-end, tracing off"
	if r.Traced {
		kind = "per layer, traced run"
	}
	fmt.Fprintf(w, "workload %s  seed %d  %d rounds  (%s)\n", r.Workload, r.Seed, r.Rounds, kind)
	fmt.Fprintf(w, "  %s, %s/%s, %s, nproc %d, GOMAXPROCS %d, commit %s\n",
		r.Env.GoVersion, r.Env.GOOS, r.Env.GOARCH, r.Env.CPUModel, r.Env.NumCPU, r.Env.GOMAXPROCS, r.Env.GitCommit)
	for _, d := range r.defs() {
		v := r.Metrics[d.Name]
		fmt.Fprintf(w, "  %-34s %14.4f %-10s n=%-5d min %.4f  max %.4f  spread %.1f%%\n",
			d.Name, v.Value, v.Unit, v.Samples, v.Min, v.Max, 100*v.Spread)
	}
	if r.Traced {
		names := make([]string, 0, len(r.Spans))
		for name := range r.Spans {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			s := r.Spans[name]
			fmt.Fprintf(w, "  span %-12s n=%-5d total %10.2f ms  self %10.2f ms\n", name, s.Count, s.TotalMs, s.SelfMs)
		}
	}
	fmt.Fprintf(w, "  simulated: %d campaigns, %d classes, %d golden cycles, fault space %d, failure weight %d\n",
		r.Stats.Campaigns, r.Stats.Classes, r.Stats.GoldenCycles, r.Stats.SpaceSize, r.Stats.FailWeight)
	fmt.Fprintf(w, "  campaigns: %d attempted, %d failed (failed_share %.4f)\n", r.Attempted, r.Failed, r.FailedShare)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

// lastLine is the single JSON object a run prints last.
func (r *result) lastLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv)
	for _, d := range r.defs() {
		metrics[d.Name] = mv{r.Metrics[d.Name].Value, d.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	return string(line)
}
