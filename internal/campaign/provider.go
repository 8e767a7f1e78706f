package campaign

import (
	"fmt"
	"time"

	"faultspace/internal/machine"
	"faultspace/internal/pruning"
	"faultspace/internal/trace"
)

// unit is the scan session's work item: a run of consecutive entries of
// the (Slot, Bit)-sorted todo list, handed to one worker as a whole.
type unit struct {
	// rung is the golden-run snapshot the fork provider restores before
	// the unit's first class; -1 for reset units, which have no anchor.
	rung    int
	classes []int // subslice of todo, ascending class index
}

// provider is one scan worker's prefix mechanism — how its machine gets
// to an injection point without simulating more of the golden run than
// it must, and how the injected run is finished. The driver (Session.Run)
// owns everything else. Calls come in the order
//
//	{ start(u); { position(slot); finish(m) }*; end(u) }*; release()
//
// with non-decreasing slots between start and end.
type provider interface {
	// start readies the worker for a unit.
	start(u unit)
	// position returns the worker's experiment machine in the fault-free
	// golden state right before instruction `slot` executes (cycle
	// slot-1), ready for the flip.
	position(slot uint64) (*machine.Machine, error)
	// finish drives the injected machine to its outcome.
	finish(m *machine.Machine) Outcome
	// end closes the unit (telemetry).
	end(u unit)
	// release hands back what the worker keeps for the session's length.
	release()
}

// inject runs one experiment on a provider: position, flip, finish.
func inject(p provider, flip flipFunc, slot, bit uint64) (Outcome, error) {
	m, err := p.position(slot)
	if err != nil {
		return 0, err
	}
	if err := flip(m, bit); err != nil {
		return 0, err
	}
	return p.finish(m), nil
}

// replayTo advances a fault-free machine along the golden run to just
// before instruction `slot`.
func replayTo(m *machine.Machine, slot uint64) error {
	if m.Cycles() < slot-1 && m.Run(slot-1) != machine.StatusRunning {
		return fmt.Errorf("campaign: golden replay ended early at cycle %d (status %s), slot %d",
			m.Cycles(), m.Status(), slot)
	}
	return nil
}

// resetUnitClasses is the size of a reset-provider work unit. The reset
// provider has no locality to exploit, so units exist only to amortize
// the claim and the delivery that ends every unit; every experiment
// replays the whole golden prefix, which makes one of each per four of
// them noise already (one class a unit measured 10-15 % slower on the
// benchmark's scan_rerun list, sixteen no different), and small units
// keep the workers balanced to the end of a small campaign and an
// interrupt from waiting for more than four replays.
const resetUnitClasses = 4

// carveResetUnits splits todo into fixed-size units.
func carveResetUnits(todo []int) []unit {
	units := make([]unit, 0, (len(todo)+resetUnitClasses-1)/resetUnitClasses)
	for i := 0; i < len(todo); i += resetUnitClasses {
		units = append(units, unit{rung: -1, classes: todo[i:min(i+resetUnitClasses, len(todo))]})
	}
	return units
}

// resetProvider is the brute-force reference (StrategyRerun, RunSingle):
// every experiment restores the reset state, replays the golden prefix,
// and runs the injected machine out to termination or the cycle budget.
// No shortcut of any kind — this is what every optimization is checked
// against, so it stays as plain as it can be.
type resetProvider struct {
	m      *machine.Machine
	reset  *machine.Snapshot
	golden *trace.Golden
	budget uint64
	obj    *Objective
}

// newResetProvider wraps a reset-state machine.
func newResetProvider(m *machine.Machine, golden *trace.Golden, budget uint64, obj *Objective) *resetProvider {
	return &resetProvider{m: m, reset: m.Snapshot(), golden: golden, budget: budget, obj: obj}
}

func (p *resetProvider) start(unit) {}

func (p *resetProvider) position(slot uint64) (*machine.Machine, error) {
	p.m.Restore(p.reset)
	return p.m, replayTo(p.m, slot)
}

func (p *resetProvider) finish(m *machine.Machine) Outcome {
	m.Run(p.budget)
	return classify(m, p.golden, p.obj)
}

func (p *resetProvider) end(unit) {}

func (p *resetProvider) release() {}

// forkBatchMax caps the classes per fork unit. Units are carved along
// rung boundaries for injection locality, but a rung whose span holds
// thousands of classes would serialize them all onto one worker;
// splitting costs only one extra rung restore per forkBatchMax classes.
const forkBatchMax = 512

// probeInterval caps the initial spacing of a child's probes (golden
// match, then loop detector), which back off from there. Denser probes
// end a reconverged child sooner but tax every child that never rejoins
// with a register hash and a RAM copy per probe; 64 cycles is where the
// baseline campaigns stop paying for the hardened ones' gain. Short
// golden runs are probed at the rung interval instead — a quarter of
// their length unless set explicitly — so they still see a few probes.
const probeInterval = 64

// carveForkUnits splits the (Slot, Bit)-sorted todo list into
// injection-ordered units along rung boundaries: every class in a unit
// is positioned from the same rung, and slots never decrease within a
// unit — the precondition for the monotone cursor advance.
func carveForkUnits(l *machine.Ladder, fs *pruning.FaultSpace, todo []int) []unit {
	units := make([]unit, 0, min(l.Rungs(), len(todo))+len(todo)/forkBatchMax)
	for i := 0; i < len(todo); {
		r := l.Find(fs.Classes[todo[i]].Slot() - 1)
		j := i + 1
		for j < len(todo) && j-i < forkBatchMax && l.Find(fs.Classes[todo[j]].Slot()-1) == r {
			j++
		}
		units = append(units, unit{rung: r, classes: todo[i:j]})
		i = j
	}
	return units
}

// forkProvider positions experiments by forking children off a monotone
// golden cursor: it restores a unit's rung once, then advances its
// cursor (parent) machine forward through the golden run, forking a
// dirty-page-delta child (machine.Forker) at each injection cycle; only
// the faulty suffix runs on the child, under runConverge, which matches
// it against the golden-state index and the worker's trajectory memo.
// The golden prefix between a unit's injections is thus simulated
// exactly once per unit instead of once per class, which is what the
// fork.prefix_cycles_saved counter accounts. The memo lives as long as
// the provider — the session — so a fleet worker's later units rejoin
// the trajectories of its earlier ones.
//
// Soundness (DESIGN.md §4c): the parent executes nothing but golden
// cycles — every fault is injected into the child AFTER the fork — so
// no child can observe faulty state from a previous experiment, and
// each child starts bit-identical to a machine replayed from reset to
// the same slot (Forker's differential-copy invariant).
type forkProvider struct {
	parent, child *machine.Machine
	ladder        *machine.Ladder
	cur           *machine.Cursor
	forker        *machine.Forker
	matcher       *machine.Matcher
	memo          *machine.TrajectoryMemo
	det           *machine.LoopDetector
	golden        *trace.Golden
	budget        uint64
	obj           *Objective
	st            *scanTel

	// Per-unit tallies, flushed to the shared counters once per unit
	// rather than once per sub-microsecond experiment.
	rungCycle       uint64
	children, saved uint64
	// memoBytes is the memo size last added to the ladder.memo_bytes
	// gauge.
	memoBytes int
}

// newForkProvider builds a worker's provider; memoHashMask is ANDed onto
// the memo's state hashes (Config.memoCollide).
func newForkProvider(parent, child *machine.Machine, ladder *machine.Ladder, index *machine.GoldenIndex, interval uint64, golden *trace.Golden, budget uint64, obj *Objective, st *scanTel, memoHashMask uint64) *forkProvider {
	forker := machine.NewForker(parent, child)
	return &forkProvider{
		parent: parent, child: child, ladder: ladder,
		cur:     ladder.NewCursor(parent),
		forker:  forker,
		matcher: index.NewMatcher(forker),
		memo:    machine.NewTrajectoryMemo(child.RAMSize(), memoHashMask),
		det:     machine.NewLoopDetector(min(interval, probeInterval)),
		golden:  golden, budget: budget, obj: obj, st: st,
	}
}

func (p *forkProvider) start(u unit) {
	// The restore rewrites the parent wholesale, so the forker resyncs.
	p.cur.Restore(u.rung)
	p.forker.Invalidate()
	p.rungCycle = p.ladder.RungCycle(u.rung)
	p.children, p.saved = 0, 0
}

func (p *forkProvider) position(slot uint64) (*machine.Machine, error) {
	// The cycles between the rung and the cursor's current position are
	// exactly the golden prefix a per-class rung restore would re-simulate.
	p.saved += p.parent.Cycles() - p.rungCycle
	if err := replayTo(p.parent, slot); err != nil {
		return nil, err
	}
	p.forker.Fork()
	p.children++
	return p.child, nil
}

func (p *forkProvider) finish(m *machine.Machine) Outcome {
	return runConverge(m, p.matcher, p.memo, p.golden, p.budget, p.obj, p.det, p.st)
}

func (p *forkProvider) end(u unit) {
	p.st.rungRestores.Inc()
	p.st.forkBatches.Observe(time.Duration(len(u.classes)))
	p.st.forkChildren.Add(p.children)
	p.st.forkSaved.Add(p.saved)
	p.st.matchProbes.Add(p.matcher.Probes)
	p.st.matchFalseHits.Add(p.matcher.FalseHits)
	p.matcher.Probes, p.matcher.FalseHits = 0, 0
	p.st.memoProbes.Add(p.memo.Probes)
	p.st.memoHits.Add(p.memo.Hits)
	p.memo.Probes, p.memo.Hits = 0, 0
	if b := p.memo.Bytes(); b != p.memoBytes {
		p.st.memoBytes.Add(int64(b - p.memoBytes))
		p.memoBytes = b
	}
}

func (p *forkProvider) release() { p.memo.Release() }
