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
	flip   pruning.Injector
	st     *scanTel

	// providers is one prefix provider per worker; nil until the first
	// non-empty Run builds them, so an idle session costs nothing. recs is
	// each worker's record buffer, reused by every run.
	providers []provider
	recs      [][]record
	// ladder is the fork strategy's golden pass, whose rungs carve every
	// run's units; nil under StrategyRerun.
	ladder *machine.Ladder
	closed bool
}

// OpenSession validates the configuration and returns a session that has
// not built anything yet. Results go to Run's callback: of cfg it reads
// the execution settings, Telemetry, Spans and Context only.
func OpenSession(t Target, golden *trace.Golden, fs *pruning.FaultSpace, cfg Config) (*Session, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	_, flip, err := pruning.Lookup(fs.Kind)
	if err != nil {
		return nil, err
	}
	return &Session{target: t, golden: golden, fs: fs, cfg: cfg, flip: flip, st: newScanTel(cfg)}, nil
}

// Close releases the session's machines and golden pass. Idempotent.
func (s *Session) Close() {
	for _, p := range s.providers {
		p.release()
	}
	s.closed = true
	s.providers, s.recs, s.ladder = nil, nil, nil
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
	memoHashMask := ^uint64(0)
	if s.cfg.memoCollide {
		memoHashMask = 0
	}
	providers := make([]provider, s.cfg.Workers)
	s.recs = make([][]record, s.cfg.Workers)
	for w := range s.recs {
		s.recs[w] = make([]record, 0, scanFlushClasses+scanPollClasses)
	}
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
		providers[w] = newForkProvider(ms[1+2*w], ms[2+2*w], ladder, index, interval, s.golden, budget, s.cfg.Objective, s.st, memoHashMask)
	}
	s.providers, s.ladder = providers, ladder
	return nil
}

// record is one completed experiment in a worker's buffer, between the
// experiment and its delivery.
type record struct {
	class   int
	outcome Outcome
}

// Driver cadence. A worker accumulates completed experiments in its own
// buffer and delivers them scanFlushClasses at a time — taking the
// delivery lock per record is a measurable slice of a fork experiment's
// sub-microsecond suffix — and checks for a flush and polls the
// interrupt every scanPollClasses classes (~a quarter millisecond of
// fork experiments), delivering what is left when a unit ends: a SIGINT
// never waits out a whole 512-class unit, and progress never trails by
// more than one flush window a worker. A buffer never holds more than
// the two together.
const (
	scanFlushClasses = 64
	scanPollClasses  = 16 // power of two
)

// Run executes the listed classes of the session's fault space — class
// indices in any order, without duplicates — and hands each outcome to
// deliver. Every scan entry point runs through here, under either
// strategy. Run owns what is common to all of them: carving the classes
// into units, the workers, interrupt polling, first-error-wins, phase
// spans and telemetry, and serialised delivery.
//
// Nothing on the per-record path crosses a goroutine, because a channel
// hand-off per unit and per batch cost a two-worker scan a quarter of its
// workers' time (park/ready pairs and the futex wakes behind them,
// DESIGN.md §4c). The carved units are shared and a worker claims the
// next one with an atomic add; it delivers its own records, a batch at a
// time, under the run's one delivery lock. The calling goroutine is
// worker 0 and only as many more are started as there are further units
// to claim, so a one-worker run — a fleet worker's leased unit — starts
// none.
//
// deliver is therefore never called concurrently, and each call
// happens-after the previous one, but not on one goroutine: the
// OnResult/OnProgress callbacks and checkpoint writers behind it need no
// locking and must not be goroutine-affine. With one worker the classes
// are delivered in ascending order. deliver runs under the delivery lock,
// so whatever it spends every worker soon waits out — which is why the
// checkpoint writer behind OnResult only encodes there and leaves write
// and fsync to its own flusher goroutine — and it is not called again
// once Run has returned.
//
// When Config.Context is cancelled, no new experiments start, the
// finished ones are delivered and Run returns ErrInterrupted.
func (s *Session) Run(classes []int, deliver func(class int, o Outcome)) error {
	return s.run(classes, deliver, nil)
}

// run is Run with the meter's end-of-batch hook: delivered, when non-nil,
// is called under the delivery lock after every batch of deliver calls.
func (s *Session) run(classes []int, deliver func(class int, o Outcome), delivered func()) (err error) {
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
	if sp := s.st.spans.Start("scan.run"); sp.Live() {
		defer func() { sp.End(fmt.Sprintf("%s: %d classes", s.cfg.Strategy, len(todo))) }()
	}
	var units []unit
	if s.ladder == nil {
		units = carveResetUnits(todo)
	} else {
		units = carveForkUnits(s.ladder, s.fs, todo)
	}

	d := &drive{s: s, units: units, deliver: deliver, delivered: delivered}
	if ctx := s.cfg.Context; ctx != nil {
		d.done = ctx.Done()
	}
	for w := 1; w < min(len(s.providers), len(units)); w++ {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			d.work(w)
		}()
	}
	d.work(0)
	d.wg.Wait()
	return d.err
}

// drive is what the workers of one run share.
type drive struct {
	s         *Session
	units     []unit
	deliver   func(class int, o Outcome)
	delivered func()
	// done is Config.Context's Done channel, read once a run (nil: never
	// closed); a worker's poll of it sets stop.
	done <-chan struct{}

	claimed atomic.Int64 // units handed out so far
	stop    atomic.Bool  // set by the first failure or interrupt
	mu      sync.Mutex   // the delivery lock; guards err as well
	err     error        // the first failure
	wg      sync.WaitGroup
}

// fail records the run's error, first one wins, and stops every worker
// at its next class.
func (d *drive) fail(err error) {
	d.mu.Lock()
	if d.err == nil {
		d.err = err
	}
	d.mu.Unlock()
	d.stop.Store(true)
}

// flush delivers a worker's buffered records under the delivery lock and
// returns the buffer, emptied.
func (d *drive) flush(recs []record) []record {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, r := range recs {
		d.deliver(r.class, r.outcome)
	}
	if d.delivered != nil {
		d.delivered()
	}
	return recs[:0]
}

// work is worker w: it claims units until none is left or the run stops.
func (d *drive) work(w int) {
	s := d.s
	st, fs, p, recs := s.st, s.fs, s.providers[w], s.recs[w][:0]
	for !d.stop.Load() {
		i := int(d.claimed.Add(1)) - 1
		if i >= len(d.units) {
			return
		}
		u := d.units[i]
		// Reset units are load-balancing chunks, not phases: a span
		// per four classes would only flood the recorder.
		var sp telemetry.ActiveSpan
		if u.rung >= 0 {
			sp = st.spans.Start("scan.batch")
		}
		p.start(u)
		for k, ci := range u.classes {
			if k&(scanPollClasses-1) == 0 {
				if len(recs) >= scanFlushClasses {
					recs = d.flush(recs)
				}
				select {
				case <-d.done:
					d.fail(ErrInterrupted)
				default:
				}
			}
			if d.stop.Load() {
				break
			}
			t0 := st.begin()
			o, err := inject(p, s.flip, []Coord{{Slot: fs.Classes[ci].Slot(), Bit: fs.Classes[ci].Bit}})
			if err != nil {
				d.fail(err)
				break
			}
			st.experiment(o, t0)
			recs = append(recs, record{class: ci, outcome: o})
		}
		if len(recs) > 0 {
			recs = d.flush(recs)
		}
		p.end(u)
		if sp.Live() {
			sp.End(fmt.Sprintf("rung %d: %d classes", u.rung, len(u.classes)))
		}
	}
}
