package experiments

import (
	"testing"

	"faultspace"
	"faultspace/internal/progs"
)

func TestMultiFault(t *testing.T) {
	if testing.Short() {
		t.Skip("4560 double-fault experiments")
	}
	r, err := MultiFault(faultspace.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The single-fault guarantee must be airtight: 96 experiments, zero
	// failures (this is DESIGN.md invariant 5 exercised via the campaign
	// layer).
	if r.SingleTotal != 96 || r.SingleFailures != 0 {
		t.Errorf("single faults: %d/%d failed, want 0/96", r.SingleFailures, r.SingleTotal)
	}
	// All unordered pairs of 96 bits: C(96,2) = 4560.
	if r.PairTotal != 4560 {
		t.Fatalf("pair total = %d, want 4560", r.PairTotal)
	}
	if r.PairFailures == 0 {
		t.Fatal("double faults must defeat SUM+DMR for some pairs")
	}

	// Analytical expectations for the complement-checksum vote:
	//   P+R pairs: replica wins the vote but is corrupt -> always fail.
	//   R+C pairs: check refutes the intact primary -> always fail.
	//   P+C pairs: fail iff the two flips hit the same bit position.
	//   Same-word pairs (P+P, R+R, C+C): detected or masked -> benign.
	expect := map[string]struct{ fail, total int }{
		"P+R": {32 * 32, 32 * 32},
		"C+R": {32 * 32, 32 * 32},
		"C+P": {32, 32 * 32},
		"P+P": {0, 32 * 31 / 2},
		"R+R": {0, 32 * 31 / 2},
		"C+C": {0, 32 * 31 / 2},
	}
	for key, want := range expect {
		if got := r.PairTotalByWords[key]; got != want.total {
			t.Errorf("%s: total = %d, want %d", key, got, want.total)
		}
		if got := r.PairFailuresByWords[key]; got != want.fail {
			t.Errorf("%s: failures = %d, want %d", key, got, want.fail)
		}
	}
	t.Logf("pair failure fraction: %.1f%% (%d of %d)",
		100*r.FailureFraction(), r.PairFailures, r.PairTotal)
}

func TestMultiFaultTMR(t *testing.T) {
	if testing.Short() {
		t.Skip("4560 double-fault experiments")
	}
	r, err := MultiFaultTMR(faultspace.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.SingleFailures != 0 {
		t.Errorf("TMR single faults: %d failures, want 0", r.SingleFailures)
	}
	// Bitwise majority fails only for same-bit flips in two different
	// copies: 3 copy pairs × 32 bit positions = 96 of 4560.
	if r.PairFailures != 96 {
		t.Errorf("TMR pair failures = %d, want 96", r.PairFailures)
	}
	for _, key := range []string{"P+R", "C+R", "C+P"} {
		if got := r.PairFailuresByWords[key]; got != 32 {
			t.Errorf("TMR %s failures = %d, want 32 (same-bit pairs)", key, got)
		}
	}
	for _, key := range []string{"P+P", "R+R", "C+C"} {
		if got := r.PairFailuresByWords[key]; got != 0 {
			t.Errorf("TMR %s failures = %d, want 0", key, got)
		}
	}
}

func TestMechanismsComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("six full scans")
	}
	m, err := Mechanisms(progs.Sizes{BinSemRounds: 2, SortElements: 6}, faultspace.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 4 {
		t.Fatalf("comparisons = %d, want bin_sem2's and sort1's under each mechanism", len(m))
	}
	sumDMR, tmr := m[0], m[1]
	if !sumDMR.FailuresSayImproved() || !tmr.FailuresSayImproved() {
		t.Errorf("both mechanisms must help on bin_sem2: dmr r=%.3f tmr r=%.3f",
			sumDMR.RatioWeighted, tmr.RatioWeighted)
	}
	// Identical baselines: the two comparisons share the denominator.
	if sumDMR.Baseline.FailWeight != tmr.Baseline.FailWeight {
		t.Error("mechanism comparisons must share the baseline")
	}
}
