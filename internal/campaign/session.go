package campaign

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"faultspace/internal/machine"
	"faultspace/internal/pruning"
	"faultspace/internal/telemetry"
	"faultspace/internal/trace"
)

// ErrSessionClosed is returned by Session.Run after Close, or after a Run
// that returned an error.
var ErrSessionClosed = errors.New("campaign: scan session is closed")

// Session is the one scan driver with a campaign's lifetime: opened once
// for a (target, golden run, fault space, config), it runs any number of
// class lists — a whole scan, a resume's remainder, a sample's unique
// classes, a cluster worker's leased units one after the other — through
// the same worker machines. It owns what every run shares: the resolved
// telemetry instruments, one prefix provider per worker with its
// machines, and for the fork strategy the golden pass (rungs and
// golden-state index), replayed at most once however many runs follow.
// What differs between strategies is only the per-worker prefix provider
// (provider.go) and how it wants a run's classes carved into units.
//
// A Session is for one caller: Run and Close must not be called
// concurrently. A Run that returns an error closes the session.
type Session struct {
	target Target
	golden *trace.Golden
	fs     *pruning.FaultSpace
	cfg    Config // defaults applied
	flip   flipFunc
	st     *scanTel

	// providers is one prefix provider per worker; nil until the first
	// non-empty Run builds them, so an idle session costs nothing.
	providers []provider
	// ladder is the fork strategy's golden pass, whose rungs carve every
	// run's units; nil under StrategyRerun.
	ladder *machine.Ladder
	closed bool
}

// OpenSession validates the configuration and returns a session that has
// not built anything yet. Results go to Run's callback: of cfg it reads
// the execution settings, Telemetry, Spans and Interrupt only.
func OpenSession(t Target, golden *trace.Golden, fs *pruning.FaultSpace, cfg Config) (*Session, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ops, err := opsFor(fs.Kind)
	if err != nil {
		return nil, err
	}
	return &Session{target: t, golden: golden, fs: fs, cfg: cfg, flip: ops.flip, st: newScanTel(cfg)}, nil
}

// Close releases the session's machines and golden pass. Idempotent.
func (s *Session) Close() {
	s.closed = true
	s.providers, s.ladder = nil, nil
}

// build allocates the worker machines and their providers — the one place
// a strategy is told apart, and the one place the golden run is replayed.
func (s *Session) build() error {
	n := s.cfg.Workers // reset: one machine a worker
	if s.cfg.Strategy == StrategyFork {
		n = 1 + 2*n // the pioneer, then a cursor parent and a child a worker
	}
	ms := make([]*machine.Machine, n)
	for i := range ms {
		m, err := s.target.newMachine()
		if err != nil {
			return err
		}
		m.SetPredecode(s.cfg.Predecode)
		ms[i] = m
	}
	budget := s.cfg.timeoutBudget(s.golden.Cycles)
	providers := make([]provider, s.cfg.Workers)
	if s.cfg.Strategy == StrategyRerun {
		for w := range providers {
			providers[w] = newResetProvider(ms[w], s.golden, budget, s.cfg.Objective)
		}
		s.providers = providers
		return nil
	}

	// The golden pass: one replay on the pioneer captures a rung every
	// interval cycles and indexes every golden state for the matcher.
	interval := s.cfg.forkInterval(s.golden.Cycles)
	sp := s.st.spans.Start("scan.golden_prefix")
	ladder, index, err := machine.CaptureGolden(ms[0], s.golden.Cycles, interval)
	if err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	if sp.Live() {
		sp.End(fmt.Sprintf("ladder: %d rungs", ladder.Rungs()))
	}
	s.cfg.Telemetry.Gauge("ladder.rungs").Set(int64(ladder.Rungs()))
	s.cfg.Telemetry.Gauge("ladder.index_bytes").Set(int64(index.Bytes()))
	for w := range providers {
		providers[w] = newForkProvider(ms[1+2*w], ms[2+2*w], ladder, index, interval, s.golden, budget, s.cfg.Objective, s.st)
	}
	s.providers, s.ladder = providers, ladder
	return nil
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

// Run executes the listed classes of the session's fault space — class
// indices in any order, without duplicates — and hands each outcome to
// deliver. Every scan entry point runs through here, under either
// strategy. Run owns what is common to all of them: the worker
// goroutines, the work feed, interrupt polling, first-error fan-in,
// phase spans and telemetry, and batched delivery from a single
// collector goroutine — so deliver, and the OnResult/OnProgress callbacks
// and checkpoint writers behind it, never need locking; it is not called
// again once Run has returned.
//
// When Config.Interrupt closes, no new experiments start, the finished
// ones are delivered and Run returns ErrInterrupted.
func (s *Session) Run(classes []int, deliver func(class int, o Outcome)) (err error) {
	if s.closed {
		return ErrSessionClosed
	}
	defer func() {
		if err != nil {
			s.Close()
		}
	}()
	// The providers want classes in (Slot, Bit) order, which is the
	// class-index order of a pruned fault space. A scan's remainder and a
	// coordinator's unit arrive in it and are only read, not copied.
	todo := classes
	if !sort.IntsAreSorted(todo) {
		todo = append([]int(nil), classes...)
		sort.Ints(todo)
	}
	for i, ci := range todo {
		if ci < 0 || ci >= len(s.fs.Classes) {
			return fmt.Errorf("campaign: class index %d outside [0, %d)", ci, len(s.fs.Classes))
		}
		if i > 0 && todo[i-1] == ci {
			return fmt.Errorf("campaign: duplicate class index %d", ci)
		}
	}
	if len(todo) == 0 {
		return nil
	}
	if s.providers == nil {
		if err := s.build(); err != nil {
			return err
		}
	}
	st, cfg, fs := s.st, s.cfg, s.fs
	if sp := st.spans.Start("scan.run"); sp.Live() {
		defer func() { sp.End(fmt.Sprintf("%s: %d classes", cfg.Strategy, len(todo))) }()
	}
	var units []unit
	if s.ladder == nil {
		units = carveResetUnits(todo)
	} else {
		units = carveForkUnits(s.ladder, fs, todo)
	}

	work := make(chan unit)
	// The results channel is deliberately unbuffered: each flush is a
	// synchronous handoff, so the collector has observed (and metered)
	// every prior flush before a worker proceeds. Progress therefore
	// trails execution by at most one flush window even at GOMAXPROCS=1,
	// which keeps interrupt delivery bounded for embedders that trigger
	// it from OnProgress. The price is that whatever deliver spends, every
	// worker soon waits out — which is why the checkpoint writer behind
	// OnResult only encodes there and leaves write and fsync to its own
	// flusher goroutine.
	results := make(chan []record)
	errCh := make(chan error, 1)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, p := range s.providers {
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
					o, err := inject(p, s.flip, fs.Classes[ci].Slot(), fs.Classes[ci].Bit)
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
				deliver(r.class, r.outcome)
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
