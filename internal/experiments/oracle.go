package experiments

import (
	"fmt"
	"math/rand"

	"faultspace"
	"faultspace/internal/campaign"
)

// The differential oracle harness pins down DESIGN.md invariant 13: for
// the attack-style fault models (instruction skip, PC corruption,
// multi-bit bursts) the pruned, accelerated scan must agree with brute
// force at every raw fault-space coordinate. One pruned scan runs with
// every accelerator the campaign layer has (the fork provider with its
// reconvergence and loop-proof shortcuts, predecode); then each randomly
// drawn raw coordinate (slot, bit) is re-executed on a fresh plain
// machine — no pruning, no predecode, rerun-from-reset — and the two
// outcomes are compared:
//
//   - coordinates Locate maps to an equivalence class must reproduce the
//     class outcome byte-identically (including the attack flag), and
//   - coordinates in the known-No-Effect region must run observably
//     identical to the golden run (outcome NoEffect; no builtin objective
//     flags a golden-identical run).
//
// A mismatch falsifies either the pruning rederivation for that space or
// one of the outcome-invariance claims of the accelerators.

// OracleMismatch is one raw coordinate where brute force disagreed with
// the pruned scan.
type OracleMismatch struct {
	Slot, Bit uint64
	// InClass reports whether the coordinate belongs to an equivalence
	// class (Class is its index) or to the known-No-Effect region.
	InClass bool
	Class   int
	// Scan is the outcome the pruned scan predicts for the coordinate;
	// Oracle is what the brute-force run produced.
	Scan, Oracle campaign.Outcome
}

// OracleReport summarizes one differential-oracle run.
type OracleReport struct {
	Name      string
	Space     faultspace.SpaceKind
	Objective string
	// Coordinates is the number of random raw coordinates checked;
	// InClass of them mapped to an equivalence class, Pruned fell into
	// the known-No-Effect region.
	Coordinates int
	InClass     int
	Pruned      int
	Mismatches  []OracleMismatch
}

// RandomCoordinateOracle runs the differential oracle for one program:
// a pruned scan with all accelerators on (opts.Space selects the fault
// model; Predecode is forced on, the strategy is kept), then
// n seeded-random raw coordinates replayed by brute force. The returned
// report lists every disagreement; an empty Mismatches slice is the
// invariant-13 verdict.
func RandomCoordinateOracle(p *faultspace.Program, opts faultspace.ScanOptions, n int, seed int64) (*OracleReport, error) {
	opts.Predecode = true
	scan, err := faultspace.Scan(p, opts)
	if err != nil {
		return nil, err
	}
	obj, err := campaign.ObjectiveByName(opts.Objective)
	if err != nil {
		return nil, err
	}
	// The brute-force config deliberately carries only the knobs that are
	// part of the campaign identity (timeout and objective): everything
	// else is an accelerator the oracle must not share with the scan.
	plain := campaign.Config{
		TimeoutFactor: opts.TimeoutFactor,
		Strategy:      campaign.StrategyRerun,
		Workers:       1,
		Objective:     obj,
	}
	t := faultspace.Target(p)
	fs, golden := scan.Space, scan.Golden
	if fs.Cycles == 0 || fs.Bits == 0 {
		return nil, fmt.Errorf("experiments: oracle: empty fault space for %s", p.Name)
	}

	rep := &OracleReport{
		Name:        p.Name,
		Space:       fs.Kind,
		Objective:   opts.Objective,
		Coordinates: n,
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		slot := 1 + uint64(rng.Int63n(int64(fs.Cycles)))
		bit := uint64(rng.Int63n(int64(fs.Bits)))

		ci, inClass, err := fs.Locate(slot, bit)
		if err != nil {
			return nil, fmt.Errorf("experiments: oracle: %w", err)
		}
		want := campaign.OutcomeNoEffect
		if inClass {
			rep.InClass++
			want = scan.Outcomes[ci]
		} else {
			rep.Pruned++
		}

		got, err := campaign.RunSingleSpace(t, golden, plain, fs.Kind, slot, bit)
		if err != nil {
			return nil, fmt.Errorf("experiments: oracle: brute force (%d, %d): %w", slot, bit, err)
		}
		if got != want {
			rep.Mismatches = append(rep.Mismatches, OracleMismatch{
				Slot: slot, Bit: bit,
				InClass: inClass, Class: ci,
				Scan: want, Oracle: got,
			})
		}
	}
	return rep, nil
}
