package faultspace

import (
	"testing"

	"faultspace/internal/harden"
	"faultspace/internal/progs"
)

// TestHiFigure3Exact verifies the paper's §IV "Hi" Gedankenexperiment
// numbers exactly: N = 128 fault-space coordinates, F = 48 failures,
// c_baseline = 62.5 %; after DFT (4 prepended NOPs) N = 192, F = 48,
// c_hardened = 75.0 %.
func TestHiFigure3Exact(t *testing.T) {
	spec := progs.Hi()

	base, err := spec.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	baseScan, err := Scan(base, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a := MustAnalyze(baseScan)
	if a.SpaceSize != 128 {
		t.Errorf("baseline fault-space size = %d, want 128", a.SpaceSize)
	}
	if a.FailWeight != 48 {
		t.Errorf("baseline weighted failures = %d, want 48", a.FailWeight)
	}
	if a.CoverageWeighted != 0.625 {
		t.Errorf("baseline coverage = %v, want 0.625", a.CoverageWeighted)
	}

	dft, err := spec.WithVariant(harden.Dilution{NOPs: 4})
	if err != nil {
		t.Fatal(err)
	}
	dftScan, err := Scan(dft, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d := MustAnalyze(dftScan)
	if d.SpaceSize != 192 {
		t.Errorf("DFT fault-space size = %d, want 192", d.SpaceSize)
	}
	if d.FailWeight != 48 {
		t.Errorf("DFT weighted failures = %d, want 48", d.FailWeight)
	}
	if d.CoverageWeighted != 0.75 {
		t.Errorf("DFT coverage = %v, want 0.75", d.CoverageWeighted)
	}

	cmp, err := Compare(a, d)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.RatioWeighted != 1.0 {
		t.Errorf("DFT failure ratio = %v, want exactly 1 (DFT prevents nothing)", cmp.RatioWeighted)
	}
	if !cmp.CoverageSaysImproved() {
		t.Error("coverage metric should (misleadingly) claim DFT improved the program")
	}
	if cmp.FailuresSayImproved() {
		t.Error("failure counts must not claim DFT improved the program")
	}
}

// TestKernelScanShapes asserts the Figure-2 shapes of the paper on full
// fault-space scans of the kernel benchmarks (EXPERIMENTS.md rows F2a-F2g):
//
//   - bin_sem2: SUM+DMR genuinely helps — weighted failure ratio well
//     below 1, coverage also up.
//   - sync2: the coverage metric claims an improvement while the weighted
//     failure count worsens by more than a factor of five (the paper's
//     headline result, §V-B).
//   - Pitfall 1: unweighted and weighted coverage diverge by tens of
//     percentage points for the baselines.
func TestKernelScanShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full kernel scans are slow")
	}
	type shape struct {
		spec       progs.Spec
		minRatio   float64
		maxRatio   float64
		misleading bool
	}
	shapes := []shape{
		{spec: progs.BinSem2(4), minRatio: 0, maxRatio: 0.6, misleading: false},
		{spec: progs.Sync2(3, 64), minRatio: 5, maxRatio: 100, misleading: true},
		// mbox1 keeps all message-path state in protected kernel objects:
		// like bin_sem2, hardening genuinely helps.
		{spec: progs.Mbox1(5), minRatio: 0, maxRatio: 0.7, misleading: false},
		// preempt1's preempted thread contexts live entirely in the
		// protected ICTX areas; hardening eliminates nearly all failures.
		{spec: progs.Preempt1(40, 48), minRatio: 0, maxRatio: 0.3, misleading: false},
		// sort1's whole working set is protected; every baseline class
		// fails (order-sensitive checksum + sortedness check), hardened
		// eliminates them all.
		{spec: progs.Sort1(12), minRatio: 0, maxRatio: 0.1, misleading: false},
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(sh.spec.Name, func(t *testing.T) {
			base, err := sh.spec.Baseline()
			if err != nil {
				t.Fatal(err)
			}
			hard, err := sh.spec.Hardened()
			if err != nil {
				t.Fatal(err)
			}
			baseScan, err := Scan(base, ScanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			hardScan, err := Scan(hard, ScanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			ab := MustAnalyze(baseScan)
			ah := MustAnalyze(hardScan)
			cmp, err := Compare(ab, ah)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s baseline: Δt=%d w=%d classes=%d failW=%d failC=%d covW=%.4f covU=%.4f",
				ab.Name, ab.RuntimeCycles, ab.SpaceSize, ab.Classes, ab.FailWeight, ab.FailClasses,
				ab.CoverageWeighted, ab.CoverageUnweighted)
			t.Logf("%s hardened: Δt=%d w=%d classes=%d failW=%d failC=%d covW=%.4f covU=%.4f",
				ah.Name, ah.RuntimeCycles, ah.SpaceSize, ah.Classes, ah.FailWeight, ah.FailClasses,
				ah.CoverageWeighted, ah.CoverageUnweighted)
			t.Logf("ratio(weighted)=%.3f ratio(unweighted)=%.3f covGainW=%.2fpp covGainU=%.2fpp misleading=%v",
				cmp.RatioWeighted, cmp.RatioUnweighted, cmp.CoverageGainWeighted,
				cmp.CoverageGainUnweighted, cmp.Misleading())

			if cmp.RatioWeighted < sh.minRatio || cmp.RatioWeighted > sh.maxRatio {
				t.Errorf("weighted ratio = %.3f, want in [%g, %g]",
					cmp.RatioWeighted, sh.minRatio, sh.maxRatio)
			}
			if cmp.Misleading() != sh.misleading {
				t.Errorf("misleading = %v, want %v", cmp.Misleading(), sh.misleading)
			}
			if !cmp.CoverageSaysImproved() {
				t.Error("the coverage metric must (rightly or wrongly) claim an improvement")
			}
			// Pitfall 1 on the baseline: the coverage accounting rules
			// disagree substantially (the paper reports 9.1-33.2 pp gaps).
			gap := metricsAbs(ab.CoverageWeighted - ab.CoverageUnweighted)
			if gap < 0.05 {
				t.Errorf("baseline weighted/unweighted coverage gap = %.3f, want > 0.05", gap)
			}
			// Figure 2g: hardening costs runtime and memory.
			if ah.RuntimeCycles <= ab.RuntimeCycles {
				t.Error("hardened runtime must exceed baseline")
			}
			if hard.RAMSize <= base.RAMSize {
				t.Error("hardened memory must exceed baseline")
			}
		})
	}
}

func metricsAbs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestClock1ScanWithInterrupts verifies that fault-injection campaigns
// work unchanged on interrupt-driven programs: the timer replays
// deterministically, scans partition cleanly, and outcomes are sane.
func TestClock1ScanWithInterrupts(t *testing.T) {
	if testing.Short() {
		t.Skip("scans are slow")
	}
	p, err := progs.Clock1(4, 64).Baseline()
	if err != nil {
		t.Fatal(err)
	}
	scan1, err := Scan(p, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	scan2, err := Scan(p, ScanOptions{Strategy: StrategyRerun})
	if err != nil {
		t.Fatal(err)
	}
	for i := range scan1.Outcomes {
		if scan1.Outcomes[i] != scan2.Outcomes[i] {
			t.Fatalf("class %d differs between strategies with interrupts", i)
		}
	}
	a := MustAnalyze(scan1)
	if a.FailWeight == 0 {
		t.Error("clock1 must have some failing coordinates (work buffer corruption)")
	}
	if a.CoverageWeighted <= 0.5 {
		t.Errorf("coverage %v suspiciously low", a.CoverageWeighted)
	}

	// The register fault space must also work with interrupts.
	regScan, err := Scan(p, ScanOptions{Space: SpaceRegisters})
	if err != nil {
		t.Fatal(err)
	}
	ra := MustAnalyze(regScan)
	if ra.Space != SpaceRegisters || ra.MemoryBits != 480 {
		t.Errorf("register analysis geometry wrong: %+v", ra)
	}
}
