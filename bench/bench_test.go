package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// identities prepares a workload's list for a seed and returns the
// campaigns' labels and identity hashes in order.
func identities(t *testing.T, w *workload, seed int64) []string {
	t.Helper()
	var ids []string
	for _, s := range w.generate(seed, false) {
		c, err := w.prepare(s)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, c.label+" "+c.idHex())
	}
	return ids
}

func TestListsFollowTheSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			first := identities(t, w, 1)
			if again := identities(t, w, 1); !reflect.DeepEqual(first, again) {
				t.Errorf("seed 1 gave two lists:\n%v\n%v", first, again)
			}
			seen := map[string]bool{strings.Join(first, "\n"): true}
			for seed := int64(2); seed <= 10; seed++ {
				seen[strings.Join(identities(t, w, seed), "\n")] = true
			}
			if len(seen) < 2 {
				t.Errorf("seeds 1-10 all gave the same list")
			}
			labels := make(map[string]bool)
			for _, id := range first {
				if labels[id] {
					t.Errorf("campaign %s is twice in the list", id)
				}
				labels[id] = true
			}
		})
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{99, 0.90, false}, {100, 0.90, true}, {999, 0.99, false}, {1000, 0.99, true}, {20, 0.50, true}, {19, 0.50, false},
	} {
		if _, ok := tailPercentile(xs[:tc.n], tc.p); ok != tc.want {
			t.Errorf("tailPercentile(%d samples, %.2f) reported %v, want %v", tc.n, tc.p, ok, tc.want)
		}
	}
	if v, _ := tailPercentile(xs, 0.99); v < 988 || v > 990 {
		t.Errorf("p99 of 0..999 = %v", v)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if s := spread([]float64{90, 100, 110, 100, 100}); s != 0 {
		t.Errorf("spread = %v, want 0", s)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestManifestIsBenchmarkJSON(t *testing.T) {
	var want bytes.Buffer
	if err := writeManifest(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("BENCHMARK.json is not what -manifest prints; regenerate it with: go run -C bench . -manifest > BENCHMARK.json")
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, w := range workloads {
		if !metricName.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
	}
}

// smoke runs one workload at the tests' reduced size.
func smoke(t *testing.T, w *workload, traced bool, golden *goldenFile, out string) *result {
	t.Helper()
	res, err := runWorkload(runConfig{
		w: w, seed: 7, budget: 100 * time.Millisecond, traced: traced, tiny: true,
		dir: t.TempDir(), out: out, golden: golden,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// lastLineMetrics decodes a run's last line and returns its metric names.
func lastLineMetrics(t *testing.T, res *result) map[string]bool {
	t.Helper()
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(res.lastLine()), &line); err != nil {
		t.Fatal(err)
	}
	if line.Attempted < 1 || line.Correct != res.Correct {
		t.Errorf("last line says attempted %d, correct %v", line.Attempted, line.Correct)
	}
	names := make(map[string]bool)
	for name := range line.Metrics {
		names[name] = true
	}
	return names
}

func names(defs []metricDef) map[string]bool {
	out := make(map[string]bool)
	for _, d := range defs {
		out[d.Name] = true
	}
	return out
}

func TestSmokeEveryWorkload(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res := smoke(t, w, false, nil, "")
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced run: correct %v, %d of %d failed: %v", res.Correct, res.Failed, res.Attempted, res.Problems)
			}
			if got := lastLineMetrics(t, res); !reflect.DeepEqual(got, names(endToEnd)) {
				t.Errorf("untraced run emitted %v, BENCHMARK.json lists %v", got, names(endToEnd))
			}
			for _, d := range endToEnd {
				if res.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s = %v, an end-to-end metric is never 0", d.Name, res.Metrics[d.Name].Value)
				}
			}

			out := t.TempDir()
			traced := smoke(t, w, true, nil, out)
			if !traced.Correct {
				t.Fatalf("traced run: %v", traced.Problems)
			}
			if got := lastLineMetrics(t, traced); !reflect.DeepEqual(got, names(perLayer)) {
				t.Errorf("traced run emitted %v, BENCHMARK.json lists %v", got, names(perLayer))
			}
			if traced.Stats != res.Stats || !reflect.DeepEqual(traced.Campaigns, res.Campaigns) {
				t.Errorf("traced and untraced runs disagree on reports or statistics:\n%+v %v\n%+v %v",
					traced.Stats, traced.Campaigns, res.Stats, res.Campaigns)
			}
			if w.kind == kindHot && traced.Metrics["campaign.experiments"].Value != 0 {
				t.Errorf("service_hot executed %v experiments", traced.Metrics["campaign.experiments"].Value)
			}
			data, err := os.ReadFile(filepath.Join(out, fmt.Sprintf("%s-seed7.trace.json", w.name)))
			if err != nil {
				t.Fatal(err)
			}
			var chrome struct{ TraceEvents []map[string]any }
			if err := json.Unmarshal(data, &chrome); err != nil || len(chrome.TraceEvents) == 0 {
				t.Errorf("Chrome trace does not load: %v (%d events)", err, len(chrome.TraceEvents))
			}
		})
	}
}

func TestCorruptDigestFailsTheCampaign(t *testing.T) {
	w := findWorkload("scan_mix")
	clean := smoke(t, w, false, nil, "")
	golden := &goldenFile{Workload: w.name, Seed: 7, Stats: clean.Stats, Campaigns: clean.Campaigns}
	if res := smoke(t, w, false, golden, ""); !res.Correct {
		t.Fatalf("run against its own digests: %v", res.Problems)
	}

	bad := *golden
	bad.Campaigns = append([]goldenCampaign(nil), golden.Campaigns...)
	victim := bad.Campaigns[3]
	if victim.Digest[0] == '0' {
		victim.Digest = "1" + victim.Digest[1:]
	} else {
		victim.Digest = "0" + victim.Digest[1:]
	}
	bad.Campaigns[3] = victim
	res := smoke(t, w, false, &bad, "")
	if res.Correct || res.FailedShare <= 0 {
		t.Fatalf("corrupted digest went unnoticed: correct %v, failed_share %v", res.Correct, res.FailedShare)
	}
	found := false
	for _, p := range res.Problems {
		if strings.Contains(p, victim.Label) && strings.Contains(p, victim.Identity) &&
			strings.Contains(p, golden.Campaigns[3].Digest) {
			found = true
		}
	}
	if !found {
		t.Errorf("no problem names campaign %s, its identity and the digests: %v", victim.Label, res.Problems)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "experiments_per_s", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		d        metricDef
		old, new value
		want     string
	}{
		{lower, value{Value: 1}, value{Value: 1.05}, "ok"},
		{lower, value{Value: 1}, value{Value: 1.2}, "REGRESSION"},
		{lower, value{Value: 1}, value{Value: 0.8}, "improved"},
		{higher, value{Value: 100}, value{Value: 80}, "REGRESSION"},
		{higher, value{Value: 100}, value{Value: 120}, "improved"},
		{lower, value{Value: 1, Spread: 0.2}, value{Value: 1.5}, "unresolved"},
	} {
		if _, got := verdict(tc.d, tc.old, tc.new); got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.d.Name, tc.old.Value, tc.new.Value, got, tc.want)
		}
	}
}

func TestCompareDirs(t *testing.T) {
	write := func(r result) string {
		dir := t.TempDir()
		if err := r.write(dir, nil); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	base := result{Workload: "scan_mix", Seed: 1, Correct: true, Attempted: 10, Metrics: map[string]value{}}
	for _, d := range endToEnd {
		base.Metrics[d.Name] = value{Value: 1, Unit: d.Unit}
	}
	old := write(base)

	var table bytes.Buffer
	if regressed, err := compareDirs(&table, old, write(base)); err != nil || regressed {
		t.Errorf("a result regressed against itself: %v\n%s", err, table.String())
	}
	if rows := strings.Count(table.String(), "scan_mix"); rows != len(endToEnd) {
		t.Errorf("%d rows for one workload, want one per end-to-end metric (%d)", rows, len(endToEnd))
	}

	slow := base
	slow.Metrics = map[string]value{}
	for name, v := range base.Metrics {
		slow.Metrics[name] = v
	}
	slow.Metrics["wall_s"] = value{Value: 1.5, Unit: "s"}
	if regressed, _ := compareDirs(io.Discard, old, write(slow)); !regressed {
		t.Error("wall_s +50% passed")
	}

	failing := base
	failing.Failed, failing.FailedShare, failing.Correct = 1, 0.1, false
	if regressed, _ := compareDirs(io.Discard, old, write(failing)); !regressed {
		t.Error("a higher failed_share passed")
	}
}

func TestReconcileNamesTheLargestGap(t *testing.T) {
	t0 := time.Now()
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	tr := &tracer{spans: []span{
		{ID: 1, Round: 2, Campaign: "a", Name: "campaign", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Round: 2, Campaign: "a", Name: "scan", Start: at(0), End: at(60)},
		{ID: 3, Parent: 1, Round: 2, Campaign: "a", Name: "save", Start: at(90), End: at(100)},
	}}
	rounds := []round{{n: 2, tr: tr, start: at(0), wall: 100 * time.Millisecond}}
	coverage, err := tr.reconcile(rounds)
	if err == nil || !strings.Contains(err.Error(), "30ms") || !strings.Contains(err.Error(), "campaign a") {
		t.Errorf("reconcile = %v, %v; want an error naming the 30ms gap in campaign a", coverage, err)
	}
	if coverage < 0.69 || coverage > 0.71 {
		t.Errorf("coverage = %v, want 0.70", coverage)
	}
	tr.spans[2].Start = at(60)
	if coverage, err := tr.reconcile(rounds); err != nil || coverage != 1 {
		t.Errorf("closed gap: reconcile = %v, %v", coverage, err)
	}
	if self := tr.totals()["campaign"].SelfMs; self != 0 {
		t.Errorf("campaign self time = %v ms, want 0", self)
	}
}

// A campaign that waits out one idle poll more in one round of eight must
// not move the metrics, and what a round spends outside its campaigns is
// part of wall_s.
func TestEndToEndIsTheRoundOfTypicalSteps(t *testing.T) {
	msec := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	c := &camp{}
	var rounds []round
	for n := 0; n < 8; n++ {
		r := round{n: n + 1, wall: msec(610), samples: []sample{
			{camp: c, latency: msec(100), stats: simStats{Classes: 1000}},
			{camp: c, latency: msec(200), stats: simStats{Classes: 2000}},
			{camp: c, latency: msec(300), stats: simStats{Classes: 3000}},
		}}
		if n == 3 {
			r.samples[1].latency += msec(200)
			r.wall += msec(200)
		}
		rounds = append(rounds, r)
	}
	m := endToEndMetrics([]float64{1}, rounds)
	near := func(name string, want float64) {
		if got := m[name].Value; math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	near("wall_s", 0.610)
	near("campaign_ms_p50", 200)
	near("experiments_per_s", 6000/0.610)
	if got := m["wall_s"].Max; got != 0.810 {
		t.Errorf("wall_s max = %v, want the slowest whole round, 0.81", got)
	}
}
