package campaign

import (
	"errors"

	"faultspace/internal/pruning"
	"faultspace/internal/trace"
)

// EffectiveTimeout returns the outcome-relevant timeout parameters with
// defaults applied — exactly the values CampaignIdentity hashes. The
// cluster handshake ships them so a worker reproduces the coordinator's
// timeout budget (and therefore its identity hash) bit for bit.
func (c Config) EffectiveTimeout() (factor float64, slack uint64) {
	c = c.withDefaults()
	return c.TimeoutFactor, c.TimeoutSlack
}

// RunClasses executes exactly the given equivalence classes of the fault
// space on a one-run Session and returns their outcomes keyed by class
// index. Because experiments are deterministic and independent, running
// them here is outcome-identical to running them inside a local FullScan
// (invariant 8, placement equivalence).
//
// Class indices may arrive in any order; duplicates and out-of-range
// indices are rejected. On cancellation of Config.Context the outcomes
// completed so far are returned alongside ErrInterrupted.
func RunClasses(t Target, golden *trace.Golden, fs *pruning.FaultSpace, cfg Config, classes []int) (map[int]Outcome, error) {
	s, err := OpenSession(t, golden, fs, cfg)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	completed := make(map[int]Outcome, len(classes))
	m := newMeter(s.cfg, len(classes), nil)
	defer m.finish()
	err = s.run(classes, func(ci int, o Outcome) {
		completed[ci] = o
		m.record(ci, o)
	}, m.delivered)
	if err != nil && !errors.Is(err, ErrInterrupted) {
		return nil, err
	}
	return completed, err
}
