package campaign

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"faultspace/internal/machine"
	"faultspace/internal/pruning"
	"faultspace/internal/telemetry"
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
}

// ErrInterrupted is returned by a scan stopped via Config.Interrupt. The
// partial Result is returned alongside it: outcomes of classes that did
// not run yet are zero (OutcomeNoEffect) and must not be analyzed —
// resume the scan instead.
var ErrInterrupted = errors.New("campaign: scan interrupted")

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
// events through Config.OnProgress; Config.Interrupt stops the scan
// early with ErrInterrupted after flushing all finished experiments.
func ResumeScan(t Target, golden *trace.Golden, fs *pruning.FaultSpace, cfg Config, prior map[int]Outcome) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
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

	m := newMeter(cfg, len(fs.Classes), prior)
	defer m.finish()
	if err := scan(t, golden, fs, cfg, todo, res.Outcomes, m); err != nil {
		if errors.Is(err, ErrInterrupted) {
			// Partial result: everything completed so far has been
			// recorded (and checkpointed via OnResult).
			return res, err
		}
		return nil, err
	}
	return res, nil
}

// record is one completed experiment streaming from a worker to the
// collector.
type record struct {
	class   int
	outcome Outcome
}

// scanFail reports a worker error at most once and raises the stop flag.
// Workers keep draining their work channel after failing (doing nothing)
// so the feeder can never deadlock on a send to a channel nobody reads —
// the bug the regression test TestWorkerErrorNoDeadlock pins down.
func scanFail(stop *atomic.Bool, errCh chan<- error, err error) {
	stop.Store(true)
	select {
	case errCh <- err:
	default:
	}
}

// Driver cadence. A worker accumulates completed experiments locally and
// hands them to the collector scanFlushClasses at a time — a channel
// handoff per record is a measurable slice of a fork experiment's
// sub-microsecond suffix — and checks for a flush and polls the
// interrupt every scanPollClasses classes (~a quarter millisecond of
// fork experiments): a SIGINT never waits out a whole 512-class unit,
// and progress never trails by more than one flush window.
const (
	scanFlushClasses = 64
	scanPollClasses  = 16 // power of two
)

// scan is the one scan driver: it executes the classes listed in todo
// (ascending class indices of fs) and delivers each outcome into
// out[class] and the meter. Every scan entry point — ResumeScan,
// RunClasses, and through it the sampler — runs through here, under
// either strategy. The driver owns what is common to all of them:
// machine acquisition and release, the worker goroutines, the work feed,
// interrupt polling, first-error fan-in, batched delivery into a single
// collector (so OnResult/OnProgress callbacks and checkpoint writers
// never need locking), phase spans and telemetry. What differs between
// strategies is only the per-worker prefix provider (provider.go) and
// how it wants todo carved into units.
func scan(t Target, golden *trace.Golden, fs *pruning.FaultSpace, cfg Config, todo []int, out []Outcome, m *meter) error {
	if len(todo) == 0 {
		return nil
	}
	st := newScanTel(cfg)
	if sp := st.spans.Start("scan.run"); sp.Live() {
		defer func() { sp.End(fmt.Sprintf("%s: %d classes", cfg.Strategy, len(todo))) }()
	}
	budget := cfg.timeoutBudget(golden.Cycles)
	ops, err := opsFor(fs.Kind)
	if err != nil {
		return err
	}
	flip := ops.flip

	var machines []*machine.Machine
	defer func() { cfg.releaseMachines(machines) }()
	acquire := func() (*machine.Machine, error) {
		mach, err := cfg.acquireMachine(t)
		if err == nil {
			machines = append(machines, mach)
		}
		return mach, err
	}

	// The one place a strategy is told apart: carve the work and build
	// one provider per worker.
	var units []unit
	providers := make([]provider, cfg.Workers)
	if cfg.Strategy == StrategyRerun {
		units = carveResetUnits(todo)
		for w := range providers {
			mach, err := acquire()
			if err != nil {
				return err
			}
			providers[w] = newResetProvider(mach, golden, budget, cfg.Objective)
		}
	} else {
		interval := cfg.forkInterval(golden.Cycles)
		ladder, index := cfg.Pool.goldenPass(interval)
		if ladder == nil {
			pioneer, err := acquire()
			if err != nil {
				return err
			}
			sp := st.spans.Start("scan.golden_prefix")
			if ladder, index, err = buildLadder(pioneer, golden, interval); err != nil {
				return err
			}
			if sp.Live() {
				sp.End(fmt.Sprintf("ladder: %d rungs", ladder.Rungs()))
			}
			cfg.Pool.keepGoldenPass(interval, ladder, index)
		}
		cfg.Telemetry.Gauge("ladder.rungs").Set(int64(ladder.Rungs()))
		cfg.Telemetry.Gauge("ladder.index_bytes").Set(int64(index.Bytes()))
		units = carveForkUnits(ladder, fs, todo)
		for w := range providers {
			parent, err := acquire()
			if err != nil {
				return err
			}
			child, err := acquire()
			if err != nil {
				return err
			}
			providers[w] = newForkProvider(parent, child, ladder, index, interval, golden, budget, cfg.Objective, st)
		}
	}

	work := make(chan unit)
	// The results channel is deliberately unbuffered: each flush is a
	// synchronous handoff, so the collector has observed (and metered)
	// every prior flush before a worker proceeds. Progress therefore
	// trails execution by at most one flush window even at GOMAXPROCS=1,
	// which keeps interrupt delivery bounded for embedders that trigger
	// it from OnProgress.
	results := make(chan []record)
	errCh := make(chan error, 1)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, p := range providers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range work {
				if stop.Load() {
					continue
				}
				// Reset units are load-balancing chunks, not phases: a span
				// per four classes would only flood the recorder.
				var sp telemetry.ActiveSpan
				if u.rung >= 0 {
					sp = st.spans.Start("scan.batch")
				}
				p.start(u)
				// A flushed slice is never reused — ownership passes to
				// the collector on send.
				recs := make([]record, 0, min(len(u.classes), scanFlushClasses+scanPollClasses))
				for k, ci := range u.classes {
					if k&(scanPollClasses-1) == 0 {
						if len(recs) >= scanFlushClasses {
							results <- recs
							recs = make([]record, 0, scanFlushClasses+scanPollClasses)
						}
						select {
						case <-cfg.Interrupt:
							scanFail(&stop, errCh, ErrInterrupted)
						default:
						}
					}
					if stop.Load() {
						break
					}
					t0 := st.begin()
					o, err := inject(p, flip, fs.Classes[ci].Slot(), fs.Classes[ci].Bit)
					if err != nil {
						scanFail(&stop, errCh, err)
						break
					}
					st.experiment(o, t0)
					recs = append(recs, record{class: ci, outcome: o})
				}
				if len(recs) > 0 {
					results <- recs
				}
				p.end(u)
				if sp.Live() {
					sp.End(fmt.Sprintf("rung %d: %d classes", u.rung, len(u.classes)))
				}
			}
		}()
	}
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for recs := range results {
			for _, r := range recs {
				out[r.class] = r.outcome
				m.record(r.class, r.outcome)
			}
		}
	}()

	feed := func() error {
		for _, u := range units {
			select {
			case <-cfg.Interrupt:
				return ErrInterrupted
			case err := <-errCh:
				return err
			case work <- u:
			}
		}
		return nil
	}
	ferr := feed()
	close(work)
	wg.Wait()
	close(results)
	<-collected
	if ferr != nil {
		return ferr
	}
	select {
	case err := <-errCh:
		return err
	default:
	}
	return nil
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
