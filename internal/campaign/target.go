package campaign

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"faultspace/internal/isa"
	"faultspace/internal/machine"
	"faultspace/internal/pruning"
	"faultspace/internal/telemetry"
	"faultspace/internal/trace"
)

// Target is a benchmark binary prepared for fault injection.
type Target struct {
	Name  string
	Code  []isa.Instruction
	Image []byte // initial RAM contents
	Mach  machine.Config
}

// Strategy selects how experiments re-reach the injection slot: which
// prefix provider the scan driver runs (see provider.go).
type Strategy uint8

// Experiment-execution strategies.
const (
	// StrategyFork batches classes along golden-run snapshot ("rung")
	// boundaries in injection-cycle order: each worker restores the
	// batch's rung once, advances a cursor machine monotonically through
	// the golden run, and at each injection cycle forks a cheap
	// dirty-page-delta child (machine.Forker) to run only the faulty
	// suffix, which ends early once its state equals the golden run's at
	// any cycle (machine.GoldenIndex) or a loop is proven. Default; see
	// DESIGN.md §4c.
	StrategyFork Strategy = iota + 1
	// StrategyRerun re-executes each experiment from the reset state and
	// runs it out to termination or the cycle budget. This is the
	// brute-force reference every optimization is checked against, kept
	// for validation and for the ablation benchmark.
	StrategyRerun
)

// String names the strategy as reports and run manifests spell it. The
// zero value reads as the default it resolves to.
func (s Strategy) String() string {
	switch s {
	case StrategyFork, 0:
		return "fork"
	case StrategyRerun:
		return "rerun"
	}
	return "unknown"
}

// Config parameterizes campaign execution.
type Config struct {
	// TimeoutFactor bounds experiment runtime: an experiment is declared a
	// Timeout after TimeoutFactor × golden-runtime + TimeoutSlack cycles.
	// 0 means DefaultTimeoutFactor.
	TimeoutFactor float64
	// TimeoutSlack is a constant cycle allowance added on top (covers
	// correction slow paths of very short benchmarks). 0 means
	// DefaultTimeoutSlack.
	TimeoutSlack uint64
	// Workers is the number of parallel experiment executors.
	// 0 means GOMAXPROCS.
	Workers int
	// Strategy selects the execution strategy. 0 means StrategyFork.
	Strategy Strategy
	// ladderInterval, when non-zero, overrides forkInterval's policy: a
	// test hook that reshapes the fork carving. Outcomes must not care.
	ladderInterval uint64
	// memoCollide, when set, makes every state in the fork workers'
	// trajectory memos hash alike: a test hook that leaves only the full
	// compare to tell states apart. Outcomes must not care.
	memoCollide bool
	// Telemetry, when non-nil, receives scan metrics: the experiment
	// counter, per-outcome duration histograms and the strategy-specific
	// shortcut counters (see DESIGN.md §4d for the metric names). Like
	// Strategy and Workers it is outcome-invariant — telemetry observes a
	// campaign, never steers it — and is therefore excluded from the
	// campaign identity hash (invariant 10). nil disables all
	// instrumentation at zero cost.
	Telemetry *telemetry.Registry
	// Spans, when non-nil, receives phase spans of the scan (strategy
	// run, golden-prefix builds, fork batches) for the campaign timeline.
	// Spans are recorded at phase granularity — never per experiment —
	// and, like Telemetry, are purely observational: outcome-invariant
	// and excluded from the campaign identity hash (invariant 15). nil
	// disables span recording at zero cost (no clock reads, no allocs).
	Spans *telemetry.SpanRecorder
	// Predecode enables the machine's pre-decoded dispatch stream: the
	// program is lowered once per machine into a dense instruction stream
	// executed by a tight chunked loop (see machine.SetPredecode). The
	// fast path is exactly Step-equivalent — the predecode equivalence
	// and self-modify fuzz tests pin that down — so like Strategy it is
	// outcome-invariant and excluded from the campaign identity hash.
	Predecode bool
	// Objective, when non-nil, is the attacker-objective predicate
	// evaluated on every classified experiment (see objective.go): the
	// AttackFlag bit is set on outcomes that satisfy it. Unlike the
	// execution knobs above it CHANGES the recorded outcomes, so the
	// objective name is part of the campaign identity hash.
	Objective *Objective

	// OnResult, when non-nil, receives every completed experiment in
	// completion order (ascending class order with one worker). Calls are
	// never concurrent and each happens-after the previous one, so
	// implementations (e.g. a checkpoint writer) need no locking; they
	// come from whichever scan worker delivers, the calling goroutine
	// included, so implementations must not be goroutine-affine. The scan
	// holds its delivery lock across the call: what it spends, every
	// worker soon waits out.
	OnResult func(class int, o Outcome)
	// OnProgress, when non-nil, receives progress events: one initial,
	// throttled intermediate ones, one final. Serialised with OnResult
	// under the same contract.
	OnProgress func(Progress)
	// ProgressInterval throttles intermediate progress events. 0 means
	// DefaultProgressInterval; a negative value emits one event per
	// completed experiment (useful in tests).
	ProgressInterval time.Duration
	// Context, when non-nil, stops the scan as soon as it is cancelled:
	// no new experiments start, in-flight ones finish and are recorded,
	// and the scan returns ErrInterrupted. nil is never cancelled.
	Context context.Context
}

// Defaults for Config.
const (
	DefaultTimeoutFactor    = 4.0
	DefaultTimeoutSlack     = 256
	DefaultProgressInterval = time.Second

	// DefaultLadderRungs is the rung count of a dense snapshot ladder
	// (interval = goldenCycles / DefaultLadderRungs). The scan itself
	// wants far fewer rungs (DefaultForkRungs); this constant is exported
	// for bench/layers.go, whose ladder-capture and rung-restore layer
	// rows are measured at this density.
	DefaultLadderRungs = 256
	// MinLadderInterval floors the auto-tuned rung spacing so very short
	// golden runs do not snapshot after every other instruction. Also
	// read by bench/layers.go.
	MinLadderInterval = 16

	// DefaultForkRungs is the rung count the fork strategy's spacing
	// aims for. Fork rungs are never restore sources for individual
	// experiments — the monotone cursor pays each rung restore once per
	// unit, not once per class — and no longer convergence checkpoints
	// either (children are matched against the golden index at their
	// probes), so they only anchor units: enough of them to spread a
	// campaign over the workers, each costing one RAM snapshot to keep. The
	// balance lands at few, wide rungs.
	DefaultForkRungs = 4
)

func (c Config) withDefaults() Config {
	if c.TimeoutFactor == 0 {
		c.TimeoutFactor = DefaultTimeoutFactor
	}
	if c.TimeoutSlack == 0 {
		c.TimeoutSlack = DefaultTimeoutSlack
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Strategy == 0 {
		c.Strategy = StrategyFork
	}
	if c.ProgressInterval == 0 {
		c.ProgressInterval = DefaultProgressInterval
	}
	return c
}

func (c Config) validate() error {
	if c.TimeoutFactor < 1 {
		return fmt.Errorf("campaign: TimeoutFactor %g must be >= 1", c.TimeoutFactor)
	}
	if c.Workers < 1 {
		return fmt.Errorf("campaign: Workers %d must be >= 1", c.Workers)
	}
	switch c.Strategy {
	case StrategyFork, StrategyRerun:
	default:
		return fmt.Errorf("campaign: unknown strategy %d", c.Strategy)
	}
	return nil
}

// forkInterval returns the rung spacing for StrategyFork: DefaultForkRungs
// rungs, at least MinLadderInterval cycles apart. Like Strategy it is
// outcome-invariant and not part of the campaign identity hash.
func (c Config) forkInterval(goldenCycles uint64) uint64 {
	if c.ladderInterval > 0 {
		return c.ladderInterval
	}
	iv := goldenCycles / DefaultForkRungs
	if iv < MinLadderInterval {
		iv = MinLadderInterval
	}
	return iv
}

// timeoutBudget computes the per-experiment cycle budget.
func (c Config) timeoutBudget(goldenCycles uint64) uint64 {
	return uint64(c.TimeoutFactor*float64(goldenCycles)) + c.TimeoutSlack
}

// Prepare records the golden run of the target and builds its pruned
// main-memory fault space. maxGoldenCycles bounds the golden run itself
// (pass a generous value; the golden run must terminate).
func (t Target) Prepare(maxGoldenCycles uint64) (*trace.Golden, *pruning.FaultSpace, error) {
	return t.PrepareSpace(pruning.SpaceMemory, maxGoldenCycles)
}

// PrepareSpace is Prepare for an arbitrary fault-space kind.
func (t Target) PrepareSpace(kind pruning.SpaceKind, maxGoldenCycles uint64) (*trace.Golden, *pruning.FaultSpace, error) {
	ops, err := opsFor(kind)
	if err != nil {
		return nil, nil, err
	}
	golden, err := trace.Record(t.Name, t.Mach, t.Code, t.Image, maxGoldenCycles)
	if err != nil {
		return nil, nil, err
	}
	fs, err := ops.build(t, golden)
	if err != nil {
		return nil, nil, err
	}
	return golden, fs, nil
}

// flipFunc injects one fault into a machine at a raw space coordinate
// (the bit/position dimension; the slot dimension is when it is called).
type flipFunc func(*machine.Machine, uint64) error

// spaceOp is what a fault-space kind means to the engine: how its pruned
// space is built from the golden run, and how one of its faults is
// injected.
type spaceOp struct {
	build func(Target, *trace.Golden) (*pruning.FaultSpace, error)
	flip  flipFunc
}

// spaceOps is the one table of them.
var spaceOps = map[pruning.SpaceKind]spaceOp{
	pruning.SpaceMemory: {
		build: func(_ Target, g *trace.Golden) (*pruning.FaultSpace, error) { return pruning.Build(g) },
		flip:  (*machine.Machine).FlipBit,
	},
	pruning.SpaceRegisters: {
		build: func(_ Target, g *trace.Golden) (*pruning.FaultSpace, error) { return pruning.BuildRegisters(g) },
		flip:  (*machine.Machine).FlipRegBit,
	},
	pruning.SpaceSkip: {
		build: func(t Target, g *trace.Golden) (*pruning.FaultSpace, error) { return pruning.BuildSkip(g, t.Code) },
		flip:  func(m *machine.Machine, _ uint64) error { m.FlipSkip(); return nil },
	},
	pruning.SpacePC: {
		build: func(t Target, g *trace.Golden) (*pruning.FaultSpace, error) {
			return pruning.BuildPC(g, uint32(len(t.Code)))
		},
		flip: (*machine.Machine).FlipPCBit,
	},
	pruning.SpaceBurst2: burstOp(pruning.SpaceBurst2.BurstWidth()),
	pruning.SpaceBurst4: burstOp(pruning.SpaceBurst4.BurstWidth()),
}

func burstOp(k int) spaceOp {
	return spaceOp{
		build: func(_ Target, g *trace.Golden) (*pruning.FaultSpace, error) { return pruning.BuildBurst(g, k) },
		flip:  func(m *machine.Machine, pos uint64) error { return m.FlipBurst(k, pos) },
	}
}

// opsFor looks a kind up, rejecting unknown ones instead of defaulting
// them: a typo'd kind must never quietly inject into the wrong space.
func opsFor(kind pruning.SpaceKind) (spaceOp, error) {
	op, ok := spaceOps[kind]
	if !ok {
		return op, fmt.Errorf("campaign: unknown fault-space kind %d", kind)
	}
	return op, nil
}

// newMachine builds a fresh reset-state machine for the target.
func (t Target) newMachine() (*machine.Machine, error) {
	return machine.New(t.Mach, t.Code, t.Image)
}
