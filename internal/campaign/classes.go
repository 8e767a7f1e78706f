package campaign

import (
	"errors"
	"fmt"
	"sort"

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
// space and returns their outcomes keyed by class index. It is the work
// horse of a cluster worker: a leased work unit is a class subset, and
// because experiments are deterministic and independent, running them
// here is outcome-identical to running them inside a local FullScan
// (invariant 8, placement equivalence).
//
// Class indices may arrive in any order; duplicates and out-of-range
// indices are rejected. On interruption via Config.Interrupt the outcomes
// completed so far are returned alongside ErrInterrupted.
func RunClasses(t Target, golden *trace.Golden, fs *pruning.FaultSpace, cfg Config, classes []int) (map[int]Outcome, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	todo := append([]int(nil), classes...)
	// The scan driver wants classes in (Slot, Bit) order, which is the
	// class-index order of a pruned fault space.
	sort.Ints(todo)
	for i, ci := range todo {
		if ci < 0 || ci >= len(fs.Classes) {
			return nil, fmt.Errorf("campaign: class index %d outside [0, %d)", ci, len(fs.Classes))
		}
		if i > 0 && todo[i-1] == ci {
			return nil, fmt.Errorf("campaign: duplicate class index %d", ci)
		}
	}

	completed := make(map[int]Outcome, len(todo))
	userOnResult := cfg.OnResult
	// The collector goroutine is the only writer of completed, and it has
	// exited before RunClasses returns — no locking needed.
	cfg.OnResult = func(ci int, o Outcome) {
		completed[ci] = o
		if userOnResult != nil {
			userOnResult(ci, o)
		}
	}

	m := newMeter(cfg, len(todo), nil)
	defer m.finish()
	out := make([]Outcome, len(fs.Classes))
	if err := scan(t, golden, fs, cfg, todo, out, m); err != nil {
		if errors.Is(err, ErrInterrupted) {
			return completed, err
		}
		return nil, err
	}
	return completed, nil
}
