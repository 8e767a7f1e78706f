package experiments

import (
	"testing"

	"faultspace"
	"faultspace/internal/progs"
)

func TestSweepSync2Buffer(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep runs several full scans")
	}
	bufs := []int{4, 32, 96}
	s, err := SweepSync2Buffer(progs.Sizes{SyncRounds: 2}, bufs, faultspace.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 3 {
		t.Fatalf("points = %d, want 3", len(s))
	}
	// The damage must scale monotonically with the unprotected buffer's
	// share of the fault space.
	for i := 1; i < len(s); i++ {
		if s[i].RatioWeighted <= s[i-1].RatioWeighted {
			t.Errorf("ratio not increasing: buf %d -> %.3f, buf %d -> %.3f",
				bufs[i-1], s[i-1].RatioWeighted, bufs[i], s[i].RatioWeighted)
		}
	}
	// Coverage claims an improvement at every point (the §V-B trap).
	for i, p := range s {
		if !p.CoverageSaysImproved() {
			t.Errorf("buf %d: coverage gain %.2f should be positive",
				bufs[i], p.CoverageGainWeighted)
		}
	}
	if x := Crossover(s); x != 0 {
		t.Errorf("crossover at index %d, want 0: buffer 4 (sync2 loses everywhere)", x)
	}
}

func TestRegisterSpaceExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("four full scans")
	}
	r, err := RegisterSpace(progs.Sizes{BinSemRounds: 2}, faultspace.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r) != 2 {
		t.Fatalf("comparisons = %d, want memory's and registers'", len(r))
	}
	memory, registers := r[0], r[1]
	if !memory.FailuresSayImproved() {
		t.Errorf("memory model: bin_sem2 hardening must help (r = %.3f)", memory.RatioWeighted)
	}
	if registers.FailuresSayImproved() {
		t.Errorf("register model: hardening must hurt (r = %.3f)", registers.RatioWeighted)
	}
	if memory.Baseline.Space != faultspace.SpaceMemory ||
		registers.Baseline.Space != faultspace.SpaceRegisters {
		t.Error("space kinds not propagated into analyses")
	}
}
