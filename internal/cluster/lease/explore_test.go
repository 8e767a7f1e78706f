package lease

import (
	"errors"
	"flag"
	"fmt"
	"hash/maphash"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"faultspace/internal/campaign"
)

// The explorer drives a State through every interleaving of a small
// fleet's events, in virtual time, by depth-first search over hashed
// states to a bounded depth. The model is a campaign of a few units and
// 2–3 workers that say hello, ask, park, submit and heartbeat as a
// worker loop does — either a unit at a time, each submission landing
// before the next ask, or pipelined: while a unit granted without a hold
// scans, the worker asks for the next one without a hold, and its
// submission of the unit stays in flight while it scans the next — plus
// an adversary that crashes them (with or without a submission still in
// flight), restarts them under the same name, delivers duplicate and
// stale-token submissions in any order, lets leases expire, interrupts
// and seals.
// Every step is checked:
//
//   - every class is merged at most once, with its own outcome, and a
//     finished campaign's outcomes equal the local scan's (all of them,
//     each merged exactly once);
//   - no lease outlives its deadline, the Next effect is the earliest
//     outstanding one, so a timer armed there reclaims it, a live worker
//     holds only the leases of the units it submits, scans and asked for
//     ahead, and a held ask whose answer would no longer be "wait" was
//     woken;
//   - the fleet is never declared drained while a worker still waits for
//     an answer, and is drained once every worker is dismissed;
//   - from every reachable state the fair schedule — the workers' own
//     moves, the delivery of their own submissions and time passing, no
//     crash, restart or adversarial delivery — reaches a terminal state,
//     every held request answered on the way:
//     a state that is not terminal always has an enabled event that
//     makes progress.

var deep = flag.Bool("explore.deep", false, "explore interleavings to the deeper bound (make explore)")

// exploreConfig is one model.
type exploreConfig struct {
	name             string
	workers, classes int
	unitSize         int
	depth            int
	crashes, dups    int
	// pipelined: the workers ask ahead and keep a submission in flight
	// while they scan; otherwise each works one unit at a time, as a
	// worker that does not ask ahead still may.
	pipelined bool
}

// tick is the virtual clock's step; a lease lasts ttlTicks of them.
const (
	tick     = time.Second
	ttlTicks = 2
)

// outcomeOf is the model's experiment: a fixed function of the class.
func outcomeOf(ci int) campaign.Outcome {
	return campaign.Outcome((ci*5 + 1) % campaign.NumOutcomes)
}

type wstate uint8

const (
	idle      wstate = iota // its next move is a hello
	joined                  // granted the campaign, holds nothing, nothing in flight: its next move is an ask
	holding                 // scans a unit
	landing                 // holds nothing; its last submission is in flight
	parked                  // its ask was answered wait and is held
	dismissed               // its hello was answered shutdown: Join returned
	crashed                 // dead; the adversary may restart it
	gone                    // its submission was refused by a sealed server
)

var wstateNames = [...]string{"idle", "joined", "holding", "landing", "parked", "dismissed", "crashed", "gone"}

type mworker struct {
	st      wstate
	unit    uint64 // holding: the unit it scans
	classes []int
	// ahead: the unit it scans came from an ask without a hold, so it asks
	// for the next one while it scans (asked once it has); next is that
	// unit when granted.
	ahead, asked bool
	next         *letter
	// sent is its submission in flight, delivered by the fair schedule.
	sent  *letter
	woken bool // parked, and a wake came since it last looked
}

// letter is a submission still in flight: a retry of one already
// delivered, or a crashed worker's under a lease since reassigned (a
// stale token: the merge must not care whose it is).
type letter struct {
	worker  int
	unit    uint64
	classes []int
}

type world struct {
	s        *State
	now      time.Time
	next     time.Time // the last step's Next effect
	ws       []mworker
	inflight []letter
	merges   []uint8
	crashes  int // budgets left
	dups     int
	// pipelined: see exploreConfig.
	pipelined bool
}

type moveKind uint8

const (
	mHello moveKind = iota
	mLeave
	mAsk
	mAskAhead
	mLook
	mLand
	mSubmit
	mSubmitDup
	mHeartbeat
	mCrash
	mCrashLate
	mRestart
	mDeliver
	mTick
	mInterrupt
	mSeal
)

var moveNames = [...]string{"hello", "leave", "ask", "ask-ahead", "look", "land", "submit", "submit+dup", "heartbeat", "crash",
	"crash+late-submit", "restart", "deliver", "tick", "interrupt", "seal"}

type move struct {
	kind   moveKind
	worker int // or the in-flight index of a delivery
}

func (m move) String() string {
	switch m.kind {
	case mTick, mInterrupt, mSeal:
		return moveNames[m.kind]
	case mDeliver:
		return fmt.Sprintf("deliver#%d", m.worker)
	}
	return fmt.Sprintf("w%d:%s", m.worker, moveNames[m.kind])
}

func workerName(i int) string { return "w" + strconv.Itoa(i) }

func newWorld(cfg exploreConfig) *world {
	return &world{
		s:         New(t0, ttlTicks*tick, cfg.classes, nil, split(cfg.classes, cfg.unitSize)),
		now:       t0,
		ws:        make([]mworker, cfg.workers),
		merges:    make([]uint8, cfg.classes),
		crashes:   cfg.crashes,
		dups:      cfg.dups,
		pipelined: cfg.pipelined,
	}
}

// clone deep-copies a State's protocol fields; the effect buffers start
// empty.
func (s *State) clone() *State {
	c := *s
	c.units = slices.Clone(s.units)
	c.pending = slices.Clone(s.pending)
	c.outcomes = slices.Clone(s.outcomes)
	c.have = slices.Clone(s.have)
	c.workers = make(map[string]*worker, len(s.workers))
	for id, w := range s.workers {
		cw := *w
		c.workers[id] = &cw
	}
	c.merged, c.notes = nil, nil
	return &c
}

func (w *world) clone() *world {
	c := *w
	c.s = w.s.clone()
	c.ws = slices.Clone(w.ws)
	c.inflight = slices.Clone(w.inflight)
	c.merges = slices.Clone(w.merges)
	return &c
}

// moves lists the enabled events; fair leaves out the adversary's.
func (w *world) moves(fair bool) []move {
	var ms []move
	for i, mw := range w.ws {
		switch mw.st {
		case idle:
			ms = append(ms, move{mHello, i})
			if !fair {
				ms = append(ms, move{mLeave, i})
			}
		case joined:
			ms = append(ms, move{mAsk, i})
		case holding:
			switch {
			case mw.ahead && !mw.asked:
				ms = append(ms, move{mAskAhead, i})
			case mw.sent == nil:
				// The scan ends once the ask ahead is answered; its
				// submission waits for the one before to land.
				ms = append(ms, move{mSubmit, i})
				if !fair && w.dups > 0 {
					ms = append(ms, move{mSubmitDup, i})
				}
			}
			if !fair {
				ms = append(ms, move{mHeartbeat, i})
			}
		case parked:
			if mw.woken {
				ms = append(ms, move{mLook, i})
			}
		case crashed:
			if !fair {
				ms = append(ms, move{mRestart, i})
			}
		}
		if mw.sent != nil && mw.st != crashed {
			ms = append(ms, move{mLand, i})
		}
		if !fair && w.crashes > 0 && (mw.st == joined || mw.st == holding || mw.st == landing || mw.st == parked) {
			ms = append(ms, move{mCrash, i})
			if mw.st == holding && w.dups > 0 {
				ms = append(ms, move{mCrashLate, i})
			}
		}
	}
	if !w.next.IsZero() {
		ms = append(ms, move{kind: mTick})
	}
	if !fair {
		for i := range w.inflight {
			ms = append(ms, move{mDeliver, i})
		}
		if !w.s.interrupted {
			ms = append(ms, move{kind: mInterrupt})
		}
		if !w.s.sealed && w.s.Phase() != Running {
			ms = append(ms, move{kind: mSeal})
		}
	}
	return ms
}

// fairMove is the fair schedule's choice: the first enabled move, in
// the order a worker's progress is cheapest.
func (w *world) fairMove() (move, bool) {
	var best move
	found := false
	rank := func(k moveKind) int {
		return slices.Index([]moveKind{mLand, mSubmit, mAskAhead, mLook, mAsk, mHello, mTick}, k)
	}
	for _, m := range w.moves(true) {
		if !found || rank(m.kind) < rank(best.kind) {
			best, found = m, true
		}
	}
	return best, found
}

// step applies one event to the State and checks what it did.
func (w *world) step(ev Event) (Effects, error) {
	eff := w.s.Step(w.now, ev)
	for _, e := range eff.Merged {
		if w.merges[e.Class]++; w.merges[e.Class] > 1 {
			return eff, fmt.Errorf("class %d merged twice", e.Class)
		}
		if campaign.Outcome(e.Outcome) != outcomeOf(e.Class) {
			return eff, fmt.Errorf("class %d merged with outcome %d, the scan's is %d", e.Class, e.Outcome, outcomeOf(e.Class))
		}
	}
	if eff.Wake {
		for i := range w.ws {
			w.ws[i].woken = true
		}
	}
	var scan time.Time
	if w.s.Phase() == Running {
		for i, u := range w.s.units {
			if u.state != unitLeased {
				continue
			}
			if !u.deadline.After(w.now) {
				return eff, fmt.Errorf("unit %d is still leased past its deadline", i)
			}
			if scan.IsZero() || u.deadline.Before(scan) {
				scan = u.deadline
			}
		}
	}
	if !eff.Next.Equal(scan) {
		return eff, fmt.Errorf("Next effect %v, the earliest outstanding lease deadline is %v", eff.Next, scan)
	}
	w.next = eff.Next
	if eff.Drained {
		for i, mw := range w.ws {
			if mw.st == joined || mw.st == holding || mw.st == landing || mw.st == parked {
				return eff, fmt.Errorf("drained while w%d is %s", i, wstateNames[mw.st])
			}
		}
	}
	return eff, nil
}

// knows reports whether a worker may hold the lease of unit u: one that
// is no longer live may hold any, one live only those it submits, scans
// or asked for ahead.
func (mw *mworker) knows(u uint64) bool {
	switch mw.st {
	case idle, dismissed, crashed, gone:
		return true
	}
	return mw.st == holding && mw.unit == u || mw.next != nil && mw.next.unit == u || mw.sent != nil && mw.sent.unit == u
}

// answer moves a worker on by the answer to its ask; held says whether
// the ask was.
func (w *world) answer(i int, r Reply, held bool) {
	mw := &w.ws[i]
	mw.woken = false
	switch r.Status {
	case Granted:
		mw.st, mw.unit, mw.classes = holding, r.Unit, r.Classes
		mw.ahead, mw.asked, mw.next = w.pipelined && !held, false, nil
	case Wait:
		mw.st = parked
	default:
		mw.st = idle
	}
}

func (w *world) submission(l letter) Event {
	return Event{Kind: Submit, Worker: workerName(l.worker), Unit: l.unit, Entries: entries(l.classes, outcomeOf)}
}

func (w *world) apply(m move) error {
	i := m.worker
	var mw *mworker
	if m.kind != mDeliver && m.kind != mTick && m.kind != mInterrupt && m.kind != mSeal {
		mw = &w.ws[i]
	}
	var err error
	var eff Effects
	switch m.kind {
	case mHello:
		if eff, err = w.step(Event{Kind: Hello, Worker: workerName(i)}); eff.Reply.Status == Granted {
			mw.st = joined
		} else {
			mw.st = dismissed
		}
	case mLeave:
		_, err = w.step(Event{Kind: Leave, Worker: workerName(i)})
		mw.st = dismissed
	case mAsk, mLook:
		eff, err = w.step(Event{Kind: Ask, Worker: workerName(i)})
		w.answer(i, eff.Reply, m.kind == mLook)
	case mAskAhead:
		// Any answer but a unit leaves the worker to finish its unit, land
		// its submission and ask again, as a worker between units does.
		eff, err = w.step(Event{Kind: Ask, Worker: workerName(i)})
		if mw.asked = true; eff.Reply.Status == Granted {
			mw.next = &letter{i, eff.Reply.Unit, eff.Reply.Classes}
		}
	case mSubmit, mSubmitDup:
		l := letter{i, mw.unit, mw.classes}
		mw.sent = &l
		if m.kind == mSubmitDup {
			w.inflight = append(w.inflight, l)
			w.dups--
		}
		if mw.next != nil {
			mw.unit, mw.classes, mw.asked, mw.next = mw.next.unit, mw.next.classes, false, nil
		} else {
			mw.st = landing
		}
		if !w.pipelined {
			// A worker that does not ask ahead waits for its submission.
			err = w.land(mw)
		}
	case mLand:
		err = w.land(mw)
	case mHeartbeat:
		units := []uint64{mw.unit}
		if mw.next != nil {
			units = append(units, mw.next.unit)
		}
		_, err = w.step(Event{Kind: Heartbeat, Worker: workerName(i), Units: units})
	case mCrash, mCrashLate:
		if m.kind == mCrashLate {
			w.inflight = append(w.inflight, letter{i, mw.unit, mw.classes})
			w.dups--
		}
		if mw.sent != nil {
			// Its submission in flight may still arrive, or never.
			w.inflight = append(w.inflight, *mw.sent)
		}
		*mw = mworker{st: crashed}
		w.crashes--
	case mRestart:
		mw.st = idle
	case mDeliver:
		l := w.inflight[i]
		w.inflight = slices.Delete(w.inflight, i, i+1)
		if eff, err = w.step(w.submission(l)); err == nil && eff.Reply.Err != nil && !errors.Is(eff.Reply.Err, ErrSealed) {
			return fmt.Errorf("late submission refused: %v", eff.Reply.Err)
		}
	case mTick:
		w.now = w.now.Add(tick)
		_, err = w.step(Event{Kind: Tick})
	case mInterrupt:
		_, err = w.step(Event{Kind: Interrupt})
	case mSeal:
		_, err = w.step(Event{Kind: Seal})
	}
	if err != nil {
		return err
	}
	if err := w.strayLease(); err != nil {
		return err
	}
	return w.lostWakeUp()
}

// land delivers a worker's submission in flight.
func (w *world) land(mw *mworker) error {
	l := *mw.sent
	mw.sent = nil
	eff, err := w.step(w.submission(l))
	switch {
	case err != nil:
		return err
	case errors.Is(eff.Reply.Err, ErrSealed):
		// Join ends, cutting whatever the worker scans.
		mw.st = gone
	case eff.Reply.Err != nil:
		return fmt.Errorf("submission refused: %v", eff.Reply.Err)
	case mw.st == landing:
		mw.st = joined
	}
	return nil
}

// strayLease fails when a live worker holds a lease of a unit it neither
// submits, scans nor asked for ahead.
func (w *world) strayLease() error {
	for i, u := range w.s.units {
		if o := ownerByte(u.owner); u.state == unitLeased && !w.ws[o].knows(uint64(i)) {
			return fmt.Errorf("w%d holds the lease of unit %d, which it neither submits, scans nor asked for ahead", o, i)
		}
	}
	return nil
}

// lostWakeUp fails when a held ask that was not woken would now be
// answered something else than "wait": it would sit out its hold.
func (w *world) lostWakeUp() error {
	for i, mw := range w.ws {
		if mw.st != parked || mw.woken {
			continue
		}
		if r := w.s.clone().Step(w.now, Event{Kind: Ask, Worker: workerName(i)}).Reply; r.Status != Wait {
			return fmt.Errorf("w%d's held ask would now be answered %d, but no wake was signalled", i, r.Status)
		}
	}
	return nil
}

// terminal reports whether every worker is through: dismissed, gone, or
// dead for good as far as the fair schedule knows.
func (w *world) terminal() bool {
	for _, mw := range w.ws {
		if mw.st != dismissed && mw.st != gone && mw.st != crashed {
			return false
		}
	}
	return true
}

// checkTerminal holds a terminal state to the campaign's result.
func (w *world) checkTerminal() error {
	if w.s.Phase() == Finished || w.s.Remaining() == 0 {
		outcomes := w.s.Outcomes()
		for ci, n := range w.merges {
			if n != 1 || outcomes[ci] != outcomeOf(ci) {
				return fmt.Errorf("finished campaign: class %d merged %d times, outcome %d; the scan's is %d", ci, n, outcomes[ci], outcomeOf(ci))
			}
		}
	}
	for _, mw := range w.ws {
		if mw.st != dismissed {
			return nil
		}
	}
	if !w.s.Drained() {
		return errors.New("every worker dismissed, but the fleet is not drained")
	}
	return nil
}

var seed = maphash.MakeSeed()

// key hashes what decides the world's future: tokens, statistics and the
// absolute time are left out, deadlines count from now.
func (w *world) key() uint64 {
	b := make([]byte, 0, 128)
	for _, mw := range w.ws {
		b = append(b, byte(mw.st), boolByte(mw.woken), byte(mw.unit), boolByte(mw.ahead), boolByte(mw.asked),
			letterByte(mw.next), letterByte(mw.sent))
	}
	var letters []uint16
	for _, l := range w.inflight {
		letters = append(letters, uint16(l.worker)<<8|uint16(l.unit))
	}
	slices.Sort(letters)
	for _, l := range letters {
		b = append(b, byte(l>>8), byte(l))
	}
	b = append(b, 0xff, byte(w.crashes), byte(w.dups), boolByte(w.s.interrupted), boolByte(w.s.sealed))
	b = append(b, w.merges...)
	for _, u := range w.s.units {
		b = append(b, byte(u.state), ownerByte(u.owner))
		if u.state == unitLeased {
			b = append(b, byte(u.deadline.Sub(w.now)/tick))
		}
	}
	b = append(b, 0xfe)
	for _, p := range w.s.pending {
		b = append(b, byte(p))
	}
	b = append(b, 0xfd)
	for i := range w.ws {
		if r := w.s.workers[workerName(i)]; r == nil {
			b = append(b, 0)
		} else {
			b = append(b, 1+boolByte(r.left), byte(r.outstanding))
		}
	}
	return maphash.Bytes(seed, b)
}

// letterByte is 1 + the unit of a letter, 0 for none.
func letterByte(l *letter) byte {
	if l == nil {
		return 0
	}
	return 1 + byte(l.unit)
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

func ownerByte(id string) byte {
	if id == "" {
		return 0xff
	}
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "w"))
	return byte(n)
}

// explorer is one bounded depth-first search.
type explorer struct {
	seen   map[uint64]int      // state → the most depth left it was visited with
	fair   map[uint64]struct{} // states whose fair schedule reaches a terminal one
	path   []move
	states int
	err    error
}

// maxFair bounds a fair schedule's run to a terminal state.
const maxFair = 200

func (e *explorer) fail(w *world, suffix []move, err error) {
	path := append(slices.Clone(e.path), suffix...)
	e.err = fmt.Errorf("%w\ncounterexample of %d events: %v\nlast state: %s", err, len(path), path, w)
}

func (w *world) String() string {
	var parts []string
	for i, mw := range w.ws {
		parts = append(parts, fmt.Sprintf("w%d %s", i, wstateNames[mw.st]))
	}
	return fmt.Sprintf("%s; phase %d, %d remaining, %d pending, %d in flight", strings.Join(parts, ", "),
		w.s.Phase(), w.s.Remaining(), len(w.s.pending), len(w.inflight))
}

// progress follows the fair schedule from w until a state already known
// to reach a terminal one, or a terminal one.
func (e *explorer) progress(w *world) {
	var chain []uint64
	var moves []move
	on := map[uint64]bool{}
	for cur := w; ; {
		k := cur.key()
		if _, ok := e.fair[k]; ok {
			break
		}
		if cur.terminal() {
			if err := cur.checkTerminal(); err != nil {
				e.fail(cur, moves, err)
				return
			}
			chain = append(chain, k)
			break
		}
		if on[k] {
			e.fail(cur, moves, errors.New("the fair schedule cycles without reaching a terminal state"))
			return
		}
		if len(moves) == maxFair {
			e.fail(cur, moves, fmt.Errorf("no terminal state within %d fair events", maxFair))
			return
		}
		m, ok := cur.fairMove()
		if !ok {
			e.fail(cur, moves, errors.New("no enabled event makes progress (a held request is never answered)"))
			return
		}
		next := cur.clone()
		moves = append(moves, m)
		if err := next.apply(m); err != nil {
			e.fail(next, moves, err)
			return
		}
		chain = append(chain, k)
		on[k] = true
		cur = next
	}
	for _, k := range chain {
		e.fair[k] = struct{}{}
	}
}

func (e *explorer) dfs(w *world, depth int) {
	k := w.key()
	left, seen := e.seen[k]
	if seen && left >= depth {
		return
	}
	e.seen[k] = depth
	if !seen {
		e.states++
		if e.progress(w); e.err != nil {
			return
		}
	}
	if depth == 0 {
		return
	}
	for _, m := range w.moves(false) {
		next := w.clone()
		e.path = append(e.path, m)
		if err := next.apply(m); err != nil {
			e.fail(next, nil, err)
			return
		}
		e.dfs(next, depth-1)
		e.path = e.path[:len(e.path)-1]
		if e.err != nil {
			return
		}
	}
}

func explore(cfg exploreConfig) (states int, err error) {
	e := &explorer{seen: map[uint64]int{}, fair: map[uint64]struct{}{}}
	e.dfs(newWorld(cfg), cfg.depth)
	return e.states, e.err
}

// TestExplore runs the explorer over its models: in `go test` to the
// bounded depth, with -explore.deep (make explore) deeper and with a
// third worker on a four-unit campaign. Each size is explored twice: with
// workers that work one unit at a time — small enough to be exhausted at
// the default depth, every reachable state visited — and with pipelined
// workers, which hold up to three units at a time, so their bounds are
// depths and the fair-schedule check runs each explored state on to its
// end.
func TestExplore(t *testing.T) {
	configs := []exploreConfig{
		{name: "2 workers, 3 units", workers: 2, classes: 3, unitSize: 1, depth: 30, crashes: 1, dups: 1},
		{name: "3 workers, 3 units of 2", workers: 3, classes: 6, unitSize: 2, depth: 11, crashes: 1, dups: 1},
		{name: "2 pipelined workers, 3 units", workers: 2, classes: 3, unitSize: 1, depth: 12, crashes: 1, dups: 1, pipelined: true},
		{name: "3 pipelined workers, 3 units of 2", workers: 3, classes: 6, unitSize: 2, depth: 8, crashes: 1, dups: 1, pipelined: true},
	}
	if *deep {
		configs = []exploreConfig{
			{name: "2 workers, 4 units", workers: 2, classes: 4, unitSize: 1, depth: 40, crashes: 2, dups: 2},
			{name: "3 workers, 4 units", workers: 3, classes: 4, unitSize: 1, depth: 15, crashes: 1, dups: 1},
			{name: "2 pipelined workers, 4 units", workers: 2, classes: 4, unitSize: 1, depth: 13, crashes: 2, dups: 2, pipelined: true},
			{name: "3 pipelined workers, 4 units", workers: 3, classes: 4, unitSize: 1, depth: 10, crashes: 1, dups: 1, pipelined: true},
		}
	}
	if raceEnabled && !*deep {
		// The explorer is single-threaded: the race detector finds nothing
		// in it and would multiply its time.
		for i := range configs {
			configs[i].depth /= 2
		}
	}
	total := 0
	for _, cfg := range configs {
		start := time.Now()
		states, err := explore(cfg)
		t.Logf("%s, depth %d: %d distinct states in %v", cfg.name, cfg.depth, states, time.Since(start).Round(time.Millisecond))
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		total += states
	}
	if !raceEnabled && total < 100_000 {
		t.Errorf("explored %d distinct states, want at least 100000", total)
	}
}
