package campaign

import (
	"math"
	"testing"

	"faultspace/internal/metrics"
)

func TestSampleModeStrings(t *testing.T) {
	for _, m := range []SampleMode{SampleRaw, SampleEffective, SampleClasses, SampleMode(99)} {
		if m.String() == "" {
			t.Errorf("mode %d has empty name", m)
		}
	}
}

func TestSampleValidation(t *testing.T) {
	target := hiTarget(t)
	golden, fs := prepare(t, target)
	if _, err := SampleScan(target, golden, fs, Config{}, SampleRaw, 0, 1); err == nil {
		t.Error("n = 0 must be rejected")
	}
	if _, err := SampleScan(target, golden, fs, Config{}, SampleMode(42), 10, 1); err == nil {
		t.Error("unknown mode must be rejected")
	}
}

func TestSampleDeterministicPerSeed(t *testing.T) {
	target := hiTarget(t)
	golden, fs := prepare(t, target)
	a, err := SampleScan(target, golden, fs, Config{}, SampleRaw, 200, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SampleScan(target, golden, fs, Config{}, SampleRaw, 200, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.Counts != b.Counts || a.Experiments != b.Experiments {
		t.Error("same seed must reproduce the same campaign")
	}
	c, err := SampleScan(target, golden, fs, Config{}, SampleRaw, 200, 43)
	if err != nil {
		t.Fatal(err)
	}
	if a.Counts == c.Counts {
		t.Log("different seeds produced identical counts (possible but unlikely)")
	}
}

// TestRawSamplingConverges draws a large sample from the Hi fault space,
// where the true failure probability is 48/128 = 0.375, and checks the
// extrapolated failure count lands near the truth.
func TestRawSamplingConverges(t *testing.T) {
	target := hiTarget(t)
	golden, fs := prepare(t, target)
	sr, err := SampleScan(target, golden, fs, Config{}, SampleRaw, 4000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Population != 128 {
		t.Fatalf("population = %d, want 128", sr.Population)
	}
	est := extrapolated(t, sr)
	if math.Abs(est-48) > 5 {
		t.Errorf("extrapolated failures = %.1f, want ~48", est)
	}
	// With only 16 equivalence classes plus the known-No-Effect region,
	// at most 16 experiments can have been executed.
	if sr.Experiments > len(fs.Classes) {
		t.Errorf("experiments = %d > classes = %d", sr.Experiments, len(fs.Classes))
	}
}

// TestEffectiveSamplingConverges checks Corollary-1 sampling: population
// w' and estimates consistent with the raw truth.
func TestEffectiveSamplingConverges(t *testing.T) {
	target := hiTarget(t)
	golden, fs := prepare(t, target)
	sr, err := SampleScan(target, golden, fs, Config{}, SampleEffective, 4000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Population != fs.ExperimentWeight() {
		t.Fatalf("population = %d, want w' = %d", sr.Population, fs.ExperimentWeight())
	}
	est := extrapolated(t, sr)
	if math.Abs(est-48) > 5 {
		t.Errorf("extrapolated failures = %.1f, want ~48", est)
	}
}

// TestBiasedSamplingSkews demonstrates Pitfall 2 quantitatively: on the Hi
// program the class-uniform estimator sees failure proportion 16/16 = 1.0
// among failing-vs-benign classes... every class here is a failure class of
// weight 3, so the biased failure proportion is 1.0 while the true
// fault-space failure probability is 0.375.
func TestBiasedSamplingSkews(t *testing.T) {
	target := hiTarget(t)
	golden, fs := prepare(t, target)
	sr, err := SampleScan(target, golden, fs, Config{}, SampleClasses, 500, 7)
	if err != nil {
		t.Fatal(err)
	}
	fails := sr.Failures()
	if fails != uint64(sr.N) {
		t.Errorf("biased sampling on hi: %d/%d failures, want all draws failing", fails, sr.N)
	}
}

func TestSampleResultHelpers(t *testing.T) {
	sr := &SampleResult{N: 100, Population: 1000}
	sr.Counts[OutcomeSDC] = 20
	sr.Counts[OutcomeNoEffect] = 80
	if sr.Failures() != 20 {
		t.Errorf("failures = %d, want 20", sr.Failures())
	}
	if got := extrapolated(t, sr); got != 200 {
		t.Errorf("extrapolated = %v, want 200", got)
	}
	empty := &SampleResult{}
	if _, err := metrics.ExtrapolateFailures(empty.Population, empty.Failures(), uint64(empty.N)); err == nil {
		t.Error("an empty result must not extrapolate")
	}
}

// extrapolated is the sample's failure count extrapolated to its
// population (Corollary 2).
func extrapolated(t *testing.T, sr *SampleResult) float64 {
	t.Helper()
	est, err := metrics.ExtrapolateFailures(sr.Population, sr.Failures(), uint64(sr.N))
	if err != nil {
		t.Fatal(err)
	}
	return est
}
