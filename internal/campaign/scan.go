package campaign

import (
	"errors"
	"fmt"

	"faultspace/internal/pruning"
	"faultspace/internal/trace"
)

// Result holds the outcome of a full fault-space scan: one classified
// outcome per def/use equivalence class.
type Result struct {
	Target Target
	Golden *trace.Golden
	Space  *pruning.FaultSpace
	// Outcomes is parallel to Space.Classes.
	Outcomes []Outcome
	// Identity is the campaign identity hash (see Target.CampaignIdentity);
	// zero for results reconstructed from archives that predate it.
	Identity [32]byte
	// Pending is the number of classes without an outcome: 0 for a
	// complete scan, positive for the partial result of an interrupted
	// one, whose unrun classes read as the zero Outcome (OutcomeNoEffect).
	Pending int
}

// ErrInterrupted is returned by a scan stopped via Config.Context. The
// partial Result is returned alongside it with Pending set; it cannot be
// archived or analyzed (ErrPartialResult) — resume the scan instead.
var ErrInterrupted = errors.New("campaign: scan interrupted")

// ErrPartialResult is returned when a Result with Pending > 0 is handed
// to something that needs every class's outcome.
var ErrPartialResult = errors.New("campaign: partial scan result")

// FullScan runs one fault-injection experiment per equivalence class of the
// pruned fault space and classifies every outcome. The scan is exhaustive:
// together with the a-priori-known "No Effect" coordinates the result
// determines the outcome of every coordinate of the raw fault space.
func FullScan(t Target, golden *trace.Golden, fs *pruning.FaultSpace, cfg Config) (*Result, error) {
	return ResumeScan(t, golden, fs, cfg, nil)
}

// ResumeScan is FullScan continuing a partially-completed campaign:
// classes present in prior (keyed by class index) keep their recorded
// outcome and are not re-executed; only the remaining classes run. The
// caller is responsible for prior actually belonging to this campaign —
// the checkpoint layer enforces that with the campaign identity hash.
//
// Completed experiments stream through Config.OnResult and progress
// events through Config.OnProgress; cancelling Config.Context stops the
// scan early with ErrInterrupted after flushing all finished experiments.
func ResumeScan(t Target, golden *trace.Golden, fs *pruning.FaultSpace, cfg Config, prior map[int]Outcome) (*Result, error) {
	s, err := OpenSession(t, golden, fs, cfg)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	res := &Result{
		Target:   t,
		Golden:   golden,
		Space:    fs,
		Outcomes: make([]Outcome, len(fs.Classes)),
	}
	id, err := t.CampaignIdentity(fs.Kind, cfg)
	if err != nil {
		return nil, fmt.Errorf("campaign: identity: %w", err)
	}
	res.Identity = id

	for ci, o := range prior {
		if ci < 0 || ci >= len(fs.Classes) {
			return nil, fmt.Errorf("campaign: resume class index %d outside [0, %d)", ci, len(fs.Classes))
		}
		if !o.Known() {
			return nil, fmt.Errorf("campaign: resume class %d has unknown outcome %d", ci, o)
		}
		res.Outcomes[ci] = o
	}
	todo := make([]int, 0, len(fs.Classes)-len(prior))
	for i := range fs.Classes {
		if _, ok := prior[i]; !ok {
			todo = append(todo, i)
		}
	}

	m := newMeter(s.cfg, len(fs.Classes), prior)
	defer m.finish()
	err = s.run(todo, func(ci int, o Outcome) {
		res.Outcomes[ci] = o
		m.record(ci, o)
	}, m.delivered)
	if errors.Is(err, ErrInterrupted) {
		// Partial result: everything completed so far has been
		// recorded (and checkpointed via OnResult).
		res.Pending = m.Remaining()
		return res, err
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RunSingle executes exactly one memory fault-injection experiment at the
// raw fault-space coordinate (slot, bit), starting from the reset state.
// It is the brute-force path used by validation tests.
func RunSingle(t Target, golden *trace.Golden, cfg Config, slot, bit uint64) (Outcome, error) {
	return RunSingleSpace(t, golden, cfg, pruning.SpaceMemory, slot, bit)
}

// RunSingleSpace is RunSingle for an arbitrary fault-space kind.
func RunSingleSpace(t Target, golden *trace.Golden, cfg Config, kind pruning.SpaceKind, slot, bit uint64) (Outcome, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	if slot == 0 || slot > golden.Cycles {
		return 0, fmt.Errorf("campaign: slot %d outside [1, %d]", slot, golden.Cycles)
	}
	ops, err := opsFor(kind)
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
	return inject(p, ops.flip, slot, bit)
}
