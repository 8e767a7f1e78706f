package campaign

import (
	"fmt"
	"sort"

	"faultspace/internal/pruning"
	"faultspace/internal/trace"
)

// Coord is one raw fault-space coordinate: flip `Bit` after instruction
// Slot−1 retired and before instruction Slot executes.
type Coord struct {
	Slot uint64
	Bit  uint64
}

// RunMulti executes one experiment with one or several independent
// transient faults, all within the same fault space, from the reset
// state: the brute-force path the validation tests and the oracle
// compare scans to. The paper's §III-A shows that multi-fault runs are
// negligibly probable under realistic soft-error rates — with several
// coordinates RunMulti *verifies* what that negligibility protects:
// e.g. that SUM+DMR's detect-and-correct guarantee collapses under double
// faults (see internal/experiments.MultiFault).
//
// Coordinates may share a slot (both flips happen at the same boundary)
// but are injected in ascending slot order.
func RunMulti(t Target, golden *trace.Golden, cfg Config, kind pruning.SpaceKind, coords []Coord) (Outcome, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	if len(coords) == 0 {
		return 0, fmt.Errorf("campaign: RunMulti needs at least one coordinate")
	}
	sorted := make([]Coord, len(coords))
	copy(sorted, coords)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Slot < sorted[j].Slot })
	for _, c := range sorted {
		if c.Slot == 0 || c.Slot > golden.Cycles {
			return 0, fmt.Errorf("campaign: slot %d outside [1, %d]", c.Slot, golden.Cycles)
		}
	}

	_, flip, err := pruning.Lookup(kind)
	if err != nil {
		return 0, err
	}
	m, err := t.newMachine()
	if err != nil {
		return 0, err
	}
	// Deliberately plain (fresh machine, no predecode, the reset provider):
	// this is the brute-force oracle the validation tests compare the
	// optimized scan path to.
	p := newResetProvider(m, golden, cfg.timeoutBudget(golden.Cycles), cfg.Objective)
	return inject(p, flip, sorted)
}
