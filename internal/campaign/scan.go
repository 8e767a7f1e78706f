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

// ResumeScan runs one fault-injection experiment per equivalence class
// of the pruned fault space and classifies every outcome. The scan is
// exhaustive: together with the a-priori-known "No Effect" coordinates
// the result determines the outcome of every coordinate of the raw fault
// space. A nil prior runs a whole scan; otherwise prior continues a
// partially-completed campaign: classes present in it (keyed by class
// index) keep their recorded outcome and are not re-executed, so only
// the remaining classes run. The caller is responsible for prior
// actually belonging to this campaign — the checkpoint layer enforces
// that with the campaign identity hash.
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

	todo, err := Remaining(len(fs.Classes), prior)
	if err != nil {
		return nil, err
	}
	for ci, o := range prior {
		res.Outcomes[ci] = o
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

// Remaining checks outcomes restored from a checkpoint or handed over
// by a resuming caller, keyed by class index, against a fault space of
// the given class count — every index must name a class and every
// outcome must be known — and returns the classes still to run,
// ascending. A resumed campaign, scanned locally or hosted by a service,
// starts from it.
func Remaining(classes int, prior map[int]Outcome) ([]int, error) {
	for ci, o := range prior {
		if ci < 0 || ci >= classes {
			return nil, fmt.Errorf("campaign: restored class index %d outside [0, %d)", ci, classes)
		}
		if !o.Known() {
			return nil, fmt.Errorf("campaign: restored class %d has unknown outcome %d", ci, o)
		}
	}
	todo := make([]int, 0, classes-len(prior))
	for ci := range classes {
		if _, ok := prior[ci]; !ok {
			todo = append(todo, ci)
		}
	}
	return todo, nil
}
