package experiments

import (
	"math"
	"testing"

	"faultspace"
	"faultspace/internal/progs"
)

func TestTable1MatchesPaper(t *testing.T) {
	t1, err := Table1(5)
	if err != nil {
		t.Fatal(err)
	}
	// λ = g·w with g = 0.057 FIT/Mbit, Δt = 1 s @ 1 GHz, Δm = 1 MiB.
	// The signature mantissa of the paper's Table I is 1.328.
	if math.Abs(t1.Lambda-1.328e-13)/1.328e-13 > 0.001 {
		t.Errorf("lambda = %g, want ~1.328e-13", t1.Lambda)
	}
	if len(t1.Rows) != 6 {
		t.Fatalf("rows = %d", len(t1.Rows))
	}
	if t1.Rows[0].P < 0.9999999 {
		t.Errorf("P(0) = %v", t1.Rows[0].P)
	}
	// P(1)/P(2) ≈ 2/λ: the single-fault dominance that justifies
	// single-fault injection (§III-A).
	dominance := t1.Rows[1].P / t1.Rows[2].P
	if dominance < 1e12 {
		t.Errorf("P(1)/P(2) = %g, want > 1e12", dominance)
	}
}

func TestFigure1MatchesPaper(t *testing.T) {
	f1, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if f1.RawCoordinates != 108 {
		t.Errorf("raw = %d, want 108", f1.RawCoordinates)
	}
	if f1.Experiments != 8 {
		t.Errorf("experiments = %d, want 8", f1.Experiments)
	}
	if f1.ClassWeight != 7 {
		t.Errorf("weight = %d, want 7", f1.ClassWeight)
	}
	if f1.NaiveCoverage != 0.5 {
		t.Errorf("naive coverage = %v, want 0.5", f1.NaiveCoverage)
	}
	want := 1 - 28.0/108.0
	if math.Abs(f1.WeightCoverage-want) > 1e-12 {
		t.Errorf("weighted coverage = %v, want %v (≈74.1%%)", f1.WeightCoverage, want)
	}
}

func TestDilutionMatchesPaper(t *testing.T) {
	d, err := Dilution(4, faultspace.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyDilution(d); err != nil {
		t.Fatal(err)
	}
	base, dft, dftPrime := d[0].Baseline, d[0].Hardened, d[1].Hardened
	if base.CoverageWeighted != 0.625 {
		t.Errorf("baseline coverage = %v, want 0.625", base.CoverageWeighted)
	}
	if dft.CoverageWeighted != 0.75 {
		t.Errorf("DFT coverage = %v, want 0.75", dft.CoverageWeighted)
	}
	if dftPrime.CoverageWeighted != 0.75 {
		t.Errorf("DFT' coverage = %v, want 0.75", dftPrime.CoverageWeighted)
	}
	if base.FailWeight != 48 || dft.FailWeight != 48 || dftPrime.FailWeight != 48 {
		t.Errorf("failure counts = %d/%d/%d, want 48 each",
			base.FailWeight, dft.FailWeight, dftPrime.FailWeight)
	}
	// The baseline's activated-only coverage is 0 (every activated fault
	// fails); DFT' inflates it — the metric is gameable under Barbosa's
	// restriction too.
	if base.CoverageActivatedOnly != 0 {
		t.Errorf("baseline activated-only = %v, want 0", base.CoverageActivatedOnly)
	}
	if dftPrime.CoverageActivatedOnly <= 0.5 {
		t.Errorf("DFT' activated-only = %v, want > 0.5", dftPrime.CoverageActivatedOnly)
	}
}

// TestDilutionMoreNopsMoreCoverage: the coverage cheat scales — more NOPs,
// higher coverage, identical failures (§IV-B: "we could arbitrarily
// increase the coverage to any c < 100%").
func TestDilutionMoreNopsMoreCoverage(t *testing.T) {
	prev := 0.0
	for _, n := range []int{0, 8, 40} {
		d, err := Dilution(n, faultspace.ScanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		dft := d[0].Hardened
		if dft.FailWeight != 48 {
			t.Fatalf("n=%d: failures = %d, want 48", n, dft.FailWeight)
		}
		if n > 0 && dft.CoverageWeighted <= prev {
			t.Errorf("n=%d: coverage %v did not grow past %v", n, dft.CoverageWeighted, prev)
		}
		prev = dft.CoverageWeighted
	}
	if prev < 0.9 {
		t.Errorf("40 NOPs should push coverage past 90%%, got %v", prev)
	}
}

func TestFigure2SmallConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("scans are slow")
	}
	f2, err := Figure2(progs.Sizes{BinSemRounds: 2, SyncRounds: 2, SyncBufBytes: 32},
		faultspace.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(f2) != 2 {
		t.Fatalf("comparisons = %d, want bin_sem2's and sync2's", len(f2))
	}
	binSem2, sync2 := f2[0], f2[1]
	// Shape assertions that must hold at any workload size.
	if !binSem2.FailuresSayImproved() {
		t.Error("bin_sem2 hardening must reduce weighted failures")
	}
	if sync2.RatioWeighted <= 1 {
		t.Errorf("sync2 hardening must worsen weighted failures, ratio = %v",
			sync2.RatioWeighted)
	}
	if !sync2.Misleading() {
		t.Error("sync2 must expose the coverage-vs-failures disagreement")
	}
	for _, p := range f2 {
		if p.Hardened.MemoryBits <= p.Baseline.MemoryBits {
			t.Errorf("%s: hardened RAM %d must exceed baseline %d",
				p.Baseline.Name, p.Hardened.MemoryBits/8, p.Baseline.MemoryBits/8)
		}
		if p.Hardened.RuntimeCycles <= p.Baseline.RuntimeCycles {
			t.Errorf("%s: hardened runtime must exceed baseline", p.Baseline.Name)
		}
	}
}

func TestPruneStatsFor(t *testing.T) {
	p, err := progs.Hi().Baseline()
	if err != nil {
		t.Fatal(err)
	}
	st, err := PruneStatsFor(p)
	if err != nil {
		t.Fatal(err)
	}
	if st.SpaceSize != 128 || st.Experiments != 16 {
		t.Errorf("stats = %+v, want w=128 experiments=16", st)
	}
	if st.ReductionFactor != 8 {
		t.Errorf("reduction = %v, want 8", st.ReductionFactor)
	}
	// 16 classes of weight 3 cover 48 coordinates; the remaining 80 are
	// known No Effect: together the full 128-coordinate space.
	if st.KnownNoEffect+48 != st.SpaceSize {
		t.Errorf("partition numbers inconsistent: %+v", st)
	}
}

func TestSamplingAgainstGroundTruth(t *testing.T) {
	if testing.Short() {
		t.Skip("sampling campaigns are slow")
	}
	p, err := progs.Sync2(2, 32).Baseline()
	if err != nil {
		t.Fatal(err)
	}
	s, err := Sampling(p, 3000, 5, faultspace.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	truth := float64(s.TrueFailWeight)
	// The correct estimators must bracket the truth in their 95% CI
	// (allowing the occasional seed to miss would flake; seed 5 verified).
	for _, est := range []SampleEstimate{s.Raw, s.Effective} {
		if truth < est.FailLo || truth > est.FailHi {
			t.Errorf("%s: truth %v outside CI [%v, %v]", est.Mode, truth, est.FailLo, est.FailHi)
		}
		if rel := math.Abs(est.FailEstimate-truth) / truth; rel > 0.25 {
			t.Errorf("%s: estimate %v deviates %.0f%% from truth %v",
				est.Mode, est.FailEstimate, 100*rel, truth)
		}
	}
	// The biased estimator extrapolates over classes, not coordinates: its
	// scale is off by orders of magnitude (Pitfall 2).
	if s.Biased.FailEstimate > truth/10 {
		t.Errorf("biased estimate %v suspiciously close to truth %v — bias demo broken",
			s.Biased.FailEstimate, truth)
	}
}
