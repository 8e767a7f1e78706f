// Package lease is the protocol state of one distributed campaign — unit
// table, leases and their deadlines, first-wins merge, tally and worker
// roster — changed only by Step(now, event), which returns the step's
// Effects. It reads no clock, starts no goroutine, takes no lock and
// speaks no HTTP, so an explorer drives it through every interleaving in
// virtual time (explore_test.go).
package lease

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"faultspace/internal/campaign"
	"faultspace/internal/checkpoint"
)

// RateWindow is the averaging window of the per-worker rates: an idle
// worker's rate decays to zero within it instead of being diluted over
// its whole session.
const RateWindow = 5 * time.Second

// Kind names an event. Hello leaves the campaign — giving back whatever
// the worker holds, as a worker restarted under the same name must — and
// joins it again while there is work to hand out; Leave is the first
// half alone. Ask is a lease request; Tick only lets time pass.
type Kind uint8

const (
	Hello Kind = iota
	Leave
	Ask
	Submit
	Heartbeat
	Tick
	Interrupt
	Seal
)

// Event is one input to Step: Worker names the sender, Unit and Entries
// are a submission's, Units a heartbeat's.
type Event struct {
	Kind    Kind
	Worker  string
	Unit    uint64
	Entries []checkpoint.Entry
	Units   []uint64
}

// Status answers an ask or a hello, numbered as on the wire's WorkUnit.
type Status uint8

const (
	Granted Status = iota
	Wait
	Done
	Shutdown
)

// Phase is where a campaign is in its life; Queued is the service's
// campaign not started yet, Stopped one interrupted, cancelled or sealed.
type Phase uint8

const (
	Queued Phase = iota
	Running
	Finished
	Stopped
)

// answers is the one phase → answer table: what an ask is told when no
// unit is granted.
var answers = [...]Status{Queued: Wait, Running: Wait, Finished: Done, Stopped: Shutdown}

// Answer is the answer to an ask in phase p when no unit is granted.
func (p Phase) Answer() Status { return answers[p] }

// Reply answers the event: a granted unit, or a submission's rejection.
type Reply struct {
	Status  Status
	Unit    uint64
	Token   uint64
	Classes []int
	Err     error
}

// ErrSealed rejects a submission to a sealed campaign.
var ErrSealed = errors.New("cluster: coordinator sealed")

// NoteKind names what a Note observed: Worker Joined (Rejoin: again) or
// Left; Unit's lease held by Worker Expired, or was Closed by the unit's
// full merge, granted At; Worker's heartbeat came a Beat Gap after its
// previous one.
type NoteKind uint8

const (
	Joined NoteKind = iota
	Left
	Expired
	Closed
	Beat
)

// Note is an observation: telemetry material, never a campaign input.
type Note struct {
	Kind    NoteKind
	Worker  string
	Rejoin  bool
	Unit    uint64
	Classes int
	At      time.Time
	Gap     time.Duration
}

// Effects is what a step means outside, valid until the next Step: the
// records merged first (for the checkpoint); Wake: a held request's
// answer may have changed; Next: when a Tick must come (zero: never);
// Done: every class has an outcome; Drained: every worker has left.
type Effects struct {
	Reply         Reply
	Merged        []checkpoint.Entry
	Wake          bool
	Next          time.Time
	Done, Drained bool
	Notes         []Note
}

type unitState uint8

const (
	unitPending unitState = iota
	unitLeased
	unitDone
)

type unit struct {
	classes           []int
	state             unitState
	owner             string
	deadline, granted time.Time
}

// worker is a roster entry: left means not joined right now. winStart,
// winExp and rate are the rate window: experiments counted up to
// winStart, and the last full window's rate (once hasRate).
type worker struct {
	experiments, merged, outstanding int
	left                             bool
	joins                            int
	lastBeat, winStart               time.Time
	winExp                           int
	rate                             float64
	hasRate                          bool
}

// State is one campaign's protocol state (see New).
type State struct {
	ttl         time.Duration
	units       []unit
	pending     []int // LIFO of grantable unit indices
	outcomes    []campaign.Outcome
	have        []bool
	tally       campaign.Tally
	reassigned  int
	workers     map[string]*worker
	tokens      uint64
	interrupted bool
	sealed      bool
	// expiry caches the earliest lease deadline (zero: none) while
	// expiryKnown; what grants, extends or ends the earliest lease clears
	// it, so a step — and every held ask a wake-up releases — costs O(1).
	expiry      time.Time
	expiryKnown bool

	// The current step's effects.
	wake   bool
	merged []checkpoint.Entry
	notes  []Note
}

// New returns the state of a campaign of total classes started at start:
// prior holds restored outcomes by class index (checked by the caller
// with campaign.Remaining), units the remaining classes, each unit
// ascending, granted in the order given; ttl is the lease TTL.
func New(start time.Time, ttl time.Duration, total int, prior map[int]campaign.Outcome, units [][]int) *State {
	s := &State{
		ttl:         ttl,
		units:       make([]unit, len(units)),
		outcomes:    make([]campaign.Outcome, total),
		have:        make([]bool, total),
		tally:       campaign.Tally{Total: total, Start: start},
		workers:     make(map[string]*worker),
		expiryKnown: true,
	}
	for ci, o := range prior {
		s.outcomes[ci], s.have[ci] = o, true
		s.tally.Restore(o)
	}
	for i := range units {
		s.units[i].classes = units[i]
		s.pending = append(s.pending, len(units)-1-i)
	}
	return s
}

// Step applies one event at time now, after reclaiming the leases whose
// deadline has come, and returns its effects.
func (s *State) Step(now time.Time, ev Event) Effects {
	s.wake, s.merged, s.notes = false, s.merged[:0], s.notes[:0]
	s.reclaim(now)
	var r Reply
	switch ev.Kind {
	case Hello:
		// Joined from here, not its first lease: a campaign ending while
		// it rebuilds must wait for it.
		if s.leave(ev.Worker); s.Phase() == Running {
			s.join(now, ev.Worker)
		} else {
			r.Status = Shutdown
		}
	case Leave:
		s.leave(ev.Worker)
	case Ask:
		s.join(now, ev.Worker)
		r = s.ask(now, ev.Worker)
	case Submit:
		r = s.submit(now, ev)
	case Heartbeat:
		s.heartbeat(now, ev)
	case Interrupt:
		s.wake = s.wake || !s.interrupted
		s.interrupted = true
	case Seal:
		s.wake = s.wake || !s.sealed
		s.sealed = true
	}
	var next time.Time
	if s.Phase() == Running {
		next = s.nextExpiry()
	}
	return Effects{Reply: r, Merged: s.merged, Wake: s.wake, Next: next,
		Done: s.tally.Remaining() == 0, Drained: s.Drained(), Notes: s.notes}
}

// Phase is Stopped once interrupted or sealed, Finished once every class
// has an outcome, else Running.
func (s *State) Phase() Phase {
	switch {
	case s.interrupted || s.sealed:
		return Stopped
	case s.tally.Remaining() == 0:
		return Finished
	}
	return Running
}

// Drained reports whether every worker that ever joined has left again.
func (s *State) Drained() bool {
	for _, w := range s.workers {
		if !w.left {
			return false
		}
	}
	return true
}

// Remaining returns the number of classes without an outcome.
func (s *State) Remaining() int { return s.tally.Remaining() }

// Outcomes returns a copy of the outcome vector.
func (s *State) Outcomes() []campaign.Outcome { return append([]campaign.Outcome(nil), s.outcomes...) }

func (s *State) note(n Note) { s.notes = append(s.notes, n) }

// member returns the worker's roster entry, making one — not joined —
// for a new name.
func (s *State) member(now time.Time, id string) *worker {
	w := s.workers[id]
	if w == nil {
		w = &worker{winStart: now, left: true}
		s.workers[id] = w
	}
	return w
}

// join counts the worker as joined (again). Only a hello or an ask
// joins: a submission or a heartbeat from a worker that left is a late
// one, and its sender is through with the campaign.
func (s *State) join(now time.Time, id string) {
	if w := s.member(now, id); w.left {
		s.note(Note{Kind: Joined, Worker: id, Rejoin: w.joins > 0})
		w.left = false
		w.joins++
	}
}

// leave takes the worker out: what it holds goes back to pending at once
// — a voluntary return, not a reassignment.
func (s *State) leave(id string) {
	w := s.workers[id]
	if w == nil || w.left {
		return
	}
	w.left = true
	s.note(Note{Kind: Left, Worker: id})
	for i := range s.units {
		if u := &s.units[i]; u.state == unitLeased && u.owner == id {
			s.release(i)
		}
	}
	w.outstanding = 0
	s.wake = true
}

// release ends unit i's lease and makes it grantable again.
func (s *State) release(i int) {
	u := &s.units[i]
	s.forget(u)
	u.state, u.owner = unitPending, ""
	s.pending = append(s.pending, i)
}

// forget clears the expiry cache if u's lease is the earliest.
func (s *State) forget(u *unit) {
	if u.deadline.Equal(s.expiry) {
		s.expiryKnown = false
	}
}

func (s *State) ask(now time.Time, id string) Reply {
	p, n := s.Phase(), len(s.pending)
	if p != Running || n == 0 {
		return Reply{Status: p.Answer()}
	}
	i := s.pending[n-1]
	s.pending = s.pending[:n-1]
	u := &s.units[i]
	u.state, u.owner, u.granted, u.deadline = unitLeased, id, now, now.Add(s.ttl)
	if s.expiryKnown && (s.expiry.IsZero() || u.deadline.Before(s.expiry)) {
		s.expiry = u.deadline
	}
	s.workers[id].outstanding++
	s.tokens++
	return Reply{Status: Granted, Unit: uint64(i), Token: s.tokens, Classes: u.classes}
}

// nextExpiry returns the earliest lease deadline (zero: none), scanning
// the units only when the cache was cleared.
func (s *State) nextExpiry() time.Time {
	if !s.expiryKnown {
		s.expiry = time.Time{}
		for i := range s.units {
			if u := &s.units[i]; u.state == unitLeased && (s.expiry.IsZero() || u.deadline.Before(s.expiry)) {
				s.expiry = u.deadline
			}
		}
		s.expiryKnown = true
	}
	return s.expiry
}

// reclaim returns the leases whose deadline has come to pending while
// the campaign runs.
func (s *State) reclaim(now time.Time) {
	if first := s.nextExpiry(); s.Phase() != Running || first.IsZero() || now.Before(first) {
		return
	}
	for i := range s.units {
		u := &s.units[i]
		if u.state != unitLeased || now.Before(u.deadline) {
			continue
		}
		if w := s.workers[u.owner]; w != nil && w.outstanding > 0 {
			w.outstanding--
		}
		s.note(Note{Kind: Expired, Worker: u.owner, Unit: uint64(i)})
		s.release(i)
		s.reassigned++
	}
	s.wake = true
}

// submit merges a worker's records for a unit, first record wins:
// outcomes are deterministic, so a duplicate — a retry, or a stale
// lease's after a reassignment — is as good as the first. A submission
// covering the whole unit closes it, whoever holds its lease.
func (s *State) submit(now time.Time, ev Event) Reply {
	if s.sealed {
		return Reply{Err: ErrSealed}
	}
	if ev.Unit >= uint64(len(s.units)) {
		return Reply{Err: fmt.Errorf("cluster: unknown unit %d", ev.Unit)}
	}
	i := int(ev.Unit)
	u := &s.units[i]
	for _, e := range ev.Entries {
		if j := sort.SearchInts(u.classes, e.Class); j == len(u.classes) || u.classes[j] != e.Class {
			return Reply{Err: fmt.Errorf("cluster: class %d not part of unit %d", e.Class, ev.Unit)}
		}
		if !campaign.Outcome(e.Outcome).Known() {
			return Reply{Err: fmt.Errorf("cluster: unknown outcome %d", e.Outcome)}
		}
	}
	w := s.member(now, ev.Worker)
	w.experiments += len(ev.Entries)
	for _, e := range ev.Entries {
		if !s.have[e.Class] {
			s.have[e.Class], s.outcomes[e.Class] = true, campaign.Outcome(e.Outcome)
			s.tally.Record(campaign.Outcome(e.Outcome))
			w.merged++
			s.merged = append(s.merged, e)
		}
	}
	if len(ev.Entries) == len(u.classes) && u.state != unitDone {
		if u.state == unitLeased {
			s.forget(u)
			if owner := s.workers[u.owner]; owner != nil && owner.outstanding > 0 {
				owner.outstanding--
			}
			s.note(Note{Kind: Closed, Worker: u.owner, Unit: ev.Unit, Classes: len(u.classes), At: u.granted})
		} else {
			// Its lease had expired: nobody may re-run it from pending.
			s.pending = slices.DeleteFunc(s.pending, func(p int) bool { return p == i })
		}
		u.state, u.owner = unitDone, ""
	}
	if len(s.merged) > 0 && s.tally.Remaining() == 0 {
		s.wake = true
	}
	return Reply{}
}

// heartbeat extends the worker's leases on the units it names.
func (s *State) heartbeat(now time.Time, ev Event) {
	w := s.member(now, ev.Worker)
	if !w.lastBeat.IsZero() {
		s.note(Note{Kind: Beat, Worker: ev.Worker, Gap: now.Sub(w.lastBeat)})
	}
	w.lastBeat = now
	for _, id := range ev.Units {
		if id < uint64(len(s.units)) && s.units[id].state == unitLeased && s.units[id].owner == ev.Worker {
			s.forget(&s.units[id])
			s.units[id].deadline = now.Add(s.ttl)
		}
	}
}

// WorkerStat is one worker's slice of a Progress event (JSON: the
// /v1/status contract): experiments run, re-runs included; outcomes
// merged first; experiments per second over the last full RateWindow
// (the partial first one before); units held.
type WorkerStat struct {
	ID          string  `json:"id"`
	Experiments int     `json:"experiments"`
	Merged      int     `json:"merged"`
	Rate        float64 `json:"expPerSec"`
	Outstanding int     `json:"outstanding"`
}

// Progress is one event of a distributed campaign's progress stream: the
// campaign progress plus the leases outstanding, the units reassigned at
// expiry and the workers, sorted by ID.
type Progress struct {
	campaign.Progress
	OutstandingLeases int
	Reassignments     int
	Workers           []WorkerStat
}

// Progress returns the progress at now. It rolls the rate windows
// forward: an elapsed window becomes the reported rate, several spread
// the experiments since over all of them, and an idle stretch decays the
// rate to zero.
func (s *State) Progress(now time.Time, final bool) Progress {
	p := Progress{Progress: s.tally.Progress(now, final), Reassignments: s.reassigned}
	for _, u := range s.units {
		if u.state == unitLeased {
			p.OutstandingLeases++
		}
	}
	for id, w := range s.workers {
		if d := now.Sub(w.winStart); d >= RateWindow {
			w.rate = float64(w.experiments-w.winExp) / (float64(d) / float64(RateWindow) * RateWindow.Seconds())
			w.hasRate, w.winStart, w.winExp = true, now, w.experiments
		}
		ws := WorkerStat{ID: id, Experiments: w.experiments, Merged: w.merged, Rate: w.rate, Outstanding: w.outstanding}
		if d := now.Sub(w.winStart); !w.hasRate && d > 0 && w.experiments > w.winExp {
			ws.Rate = float64(w.experiments-w.winExp) / d.Seconds()
		}
		p.Workers = append(p.Workers, ws)
	}
	sort.Slice(p.Workers, func(i, j int) bool { return p.Workers[i].ID < p.Workers[j].ID })
	return p
}
