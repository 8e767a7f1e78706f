package experiments

import (
	"testing"

	"faultspace"
	"faultspace/internal/progs"
)

// runOracle drives the differential oracle for one space/objective pair
// and fails the test on any scan/brute-force disagreement (invariant 13).
func runOracle(t *testing.T, space faultspace.SpaceKind, objective string, n int) *OracleReport {
	return runOracleStrategy(t, space, objective, 0, n)
}

func runOracleStrategy(t *testing.T, space faultspace.SpaceKind, objective string, strat faultspace.Strategy, n int) *OracleReport {
	t.Helper()
	p, err := progs.Hi().Baseline()
	if err != nil {
		t.Fatal(err)
	}
	return runOracleProgram(t, p, space, objective, strat, n)
}

func runOracleProgram(t *testing.T, p *faultspace.Program, space faultspace.SpaceKind, objective string, strat faultspace.Strategy, n int) *OracleReport {
	t.Helper()
	rep, err := RandomCoordinateOracle(p, faultspace.ScanOptions{
		Space:     space,
		Objective: objective,
		Strategy:  strat,
	}, n, 0xfa17)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Coordinates != n || rep.InClass+rep.Pruned != n {
		t.Fatalf("coordinate accounting: %d checked, %d in-class + %d pruned",
			rep.Coordinates, rep.InClass, rep.Pruned)
	}
	for _, m := range rep.Mismatches {
		t.Errorf("space %s: (%d, %d) inClass=%v: scan %v, oracle %v",
			space, m.Slot, m.Bit, m.InClass, m.Scan, m.Oracle)
	}
	return rep
}

func TestOracleRandomCoordinatesSkip(t *testing.T) {
	rep := runOracle(t, faultspace.SpaceSkip, "", 200)
	// The skip space prunes nops, fallen-through branches and dead data
	// ops; hi must exercise both sides of the partition.
	if rep.InClass == 0 || rep.Pruned == 0 {
		t.Errorf("degenerate draw: %d in-class, %d pruned", rep.InClass, rep.Pruned)
	}
}

func TestOracleRandomCoordinatesPC(t *testing.T) {
	// The PC space groups classes that are only outcome-equivalent, so it
	// is the sharpest probe of the objective soundness contract — run it
	// under every builtin objective plus none.
	for _, obj := range append([]string{""}, faultspace.ObjectiveNames()...) {
		rep := runOracle(t, faultspace.SpacePC, obj, 200)
		if rep.InClass == 0 {
			t.Errorf("objective %q: no coordinate hit a class", obj)
		}
	}
}

func TestOracleRandomCoordinatesBurst(t *testing.T) {
	for _, space := range []faultspace.SpaceKind{faultspace.SpaceBurst2, faultspace.SpaceBurst4} {
		rep := runOracle(t, space, "corrupt", 200)
		if rep.InClass == 0 || rep.Pruned == 0 {
			t.Errorf("%s: degenerate draw: %d in-class, %d pruned", space, rep.InClass, rep.Pruned)
		}
	}
}

// TestOracleRandomCoordinatesFork is invariant 6's oracle leg: the
// fully-accelerated FORK-strategy scan must agree with the plain
// rerun-from-reset brute force at random raw coordinates, across all
// six fault spaces. The skip space runs under the dos objective so the
// attack flag crosses the fork path too.
func TestOracleRandomCoordinatesFork(t *testing.T) {
	for _, tc := range []struct {
		space     faultspace.SpaceKind
		objective string
	}{
		{faultspace.SpaceMemory, ""},
		{faultspace.SpaceRegisters, ""},
		{faultspace.SpaceSkip, "dos"},
		{faultspace.SpacePC, ""},
		{faultspace.SpaceBurst2, ""},
		{faultspace.SpaceBurst4, ""},
	} {
		rep := runOracleStrategy(t, tc.space, tc.objective, faultspace.StrategyFork, 200)
		// hi's live-register region is a sliver of slots × 512 bits, so a
		// random register draw legitimately lands all-pruned; every other
		// space must exercise both sides of the partition.
		if rep.InClass == 0 && tc.space != faultspace.SpaceRegisters {
			t.Errorf("%s: no coordinate hit a class", tc.space)
		}
	}
	// Hardened programs put the shifted reconvergence under the oracle:
	// nearly every in-class coordinate there is detected, corrected and
	// composed from the golden cycle it rejoins a correction path late —
	// SUM+DMR and TMR, with and without a timer, faults in RAM, registers
	// and the PC, the bypass objective reading the composed counters.
	small := progs.Sizes{BinSemRounds: 1, ClockTicks: 2, ClockPeriod: 32, PreemptWork: 8, PreemptPeriod: 24}
	for _, tc := range []struct {
		prog      string
		tmr       bool
		space     faultspace.SpaceKind
		objective string
	}{
		{"bin_sem2", false, faultspace.SpaceMemory, "bypass"},
		{"bin_sem2", true, faultspace.SpaceMemory, ""},
		{"bin_sem2", false, faultspace.SpaceRegisters, ""},
		{"bin_sem2", false, faultspace.SpacePC, "dos"},
		{"clock1", false, faultspace.SpaceMemory, ""},
		{"preempt1", false, faultspace.SpaceBurst2, ""},
	} {
		spec, err := progs.Resolve(tc.prog, small)
		if err != nil {
			t.Fatal(err)
		}
		build := spec.Hardened
		if tc.tmr {
			build = spec.HardenedTMR
		}
		p, err := build()
		if err != nil {
			t.Fatal(err)
		}
		if rep := runOracleProgram(t, p, tc.space, tc.objective, faultspace.StrategyFork, 200); rep.InClass == 0 {
			t.Errorf("%s %s: no coordinate hit a class", p.Name, tc.space)
		}
	}
}
