package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"faultspace/internal/campaign"
	"faultspace/internal/cluster/lease"
	"faultspace/internal/pruning"
	"faultspace/internal/telemetry"
	"faultspace/internal/trace"
)

// Options parameterizes a Coordinator.
type Options struct {
	// UnitSize is the number of equivalence classes per work unit
	// (default DefaultUnitSize). Units are contiguous injection-ordered
	// class-index ranges, so a snapshot-strategy worker replays each
	// golden prefix once and a fork-strategy worker carves dense batches
	// along rung boundaries.
	UnitSize int
	// LeaseTTL is how long a leased unit may go without a heartbeat or
	// submission before it is reassigned (default DefaultLeaseTTL).
	LeaseTTL time.Duration
	// MaxGoldenCycles is shipped to workers so their golden replay bound
	// matches the coordinator's.
	MaxGoldenCycles uint64
	// OnResult receives every freshly merged outcome — the checkpoint
	// writer hook. Calls are serialized under the coordinator lock, so a
	// checkpoint.Writer needs no extra locking.
	OnResult func(class int, o campaign.Outcome)
	// OnProgress receives cluster progress events: one initial, throttled
	// intermediate ones, one final.
	OnProgress func(Progress)
	// ProgressInterval throttles intermediate progress events (default
	// 1s; negative = one event per submission).
	ProgressInterval time.Duration
	// Context, when cancelled, stops the campaign: leases stop being
	// granted, Wait returns the partial result with ErrInterrupted. nil is
	// never cancelled.
	Context context.Context
	// Telemetry, when non-nil, receives cluster metrics (lease grants and
	// expiries, submissions, duplicate submits, heartbeats and their gap
	// histogram; see DESIGN.md §4d), served in the campaign's status and
	// /metrics by the campaign service that hosts it.
	// Purely observational: it never changes what the coordinator
	// computes.
	Telemetry *telemetry.Registry
	// TraceID overrides the campaign trace ID minted by NewSpec — the
	// service passes a submitted campaign's ID through so the fleet's
	// spans correlate with the submission. Zero keeps the minted one.
	// The trace ID is observability identity only and never feeds the
	// campaign identity hash (invariant 15).
	TraceID telemetry.TraceID
}

// Defaults for Options, and the coordinator's fixed settings.
const (
	DefaultUnitSize = 256
	DefaultLeaseTTL = 10 * time.Second
	// timelineCapacity bounds the merged campaign timeline: the
	// coordinator's own spans plus every span workers ship back with
	// submissions — four times a single recorder's default, since the
	// coordinator aggregates a whole fleet. Beyond capacity the newest
	// spans are dropped and the loss is self-described via the recorder's
	// drop counter in the campaign's status.
	timelineCapacity = 4 * telemetry.DefaultSpanCapacity
)

// ErrLeaseTTL rejects a lease TTL below MinLeaseTTL.
var ErrLeaseTTL = errors.New("cluster: lease TTL too short")

// MinLeaseTTL is the shortest lease a coordinator grants and a worker
// accepts. A worker heartbeats every LeaseTTL/3: a ticker of zero
// duration panics and one of a few nanoseconds spins, so the TTL a
// handshake announces is checked at both ends.
const MinLeaseTTL = time.Millisecond

// CheckLeaseTTL returns an ErrLeaseTTL error for a TTL below MinLeaseTTL.
func CheckLeaseTTL(ttl time.Duration) error {
	if ttl < MinLeaseTTL {
		return fmt.Errorf("%w: %v, minimum %v", ErrLeaseTTL, ttl, MinLeaseTTL)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.UnitSize == 0 {
		o.UnitSize = DefaultUnitSize
	}
	if o.LeaseTTL == 0 {
		o.LeaseTTL = DefaultLeaseTTL
	}
	if o.ProgressInterval == 0 {
		o.ProgressInterval = time.Second
	}
	return o
}

// WorkerStat is one worker's slice of a cluster Progress event.
type WorkerStat = lease.WorkerStat

// Progress is one event of a distributed campaign's progress stream: the
// regular campaign progress plus cluster-level statistics.
type Progress = lease.Progress

// Coordinator is the lease host of one campaign: its lease.State, the one
// mutex around Step and the step's effects — the reply, OnResult, spans
// and counters, held requests woken, one timer at the next deadline. It
// speaks no HTTP: the campaign service (internal/service) decodes each
// worker message, routes it by the campaign identity it carries and hands
// it to Hello, Leave, Ask, Submit or Heartbeat.
type Coordinator struct {
	target   campaign.Target
	golden   *trace.Golden
	space    *pruning.FaultSpace
	identity [32]byte
	spec     []byte // encoded handshake frame
	opts     Options

	mu       sync.Mutex
	state    *lease.State
	start    time.Time
	lastEmit time.Time
	finished chan struct{}
	// stopped is Options.Context's Done channel (nil: never closed);
	// unwatch deregisters the step that interrupts the campaign when it
	// closes, once the campaign has finished or is sealed.
	stopped <-chan struct{}
	unwatch func() bool
	// wake is closed and replaced when a step says so; holds counts every
	// lease ask until its answer is out; timer ticks the state at the
	// earliest lease deadline (armed); waited is set once Wait has sent the
	// final progress event.
	wake   chan struct{}
	holds  Holds
	timer  *time.Timer
	armed  time.Time
	waited bool

	// Fleet timeline: the campaign trace ID from the spec and the merged
	// span recorder (the coordinator's own spans plus the spans workers
	// ship back with submissions). rampedUp latches the one-shot
	// campaign.rampup span covering campaign start to the first lease
	// grant — the time-to-first-work a fleet operator cares about, and
	// otherwise a dark region at the head of every timeline.
	traceID  telemetry.TraceID
	spans    *telemetry.SpanRecorder
	rampedUp bool

	// Telemetry instruments, resolved once in NewCoordinator; all nil
	// (no-op) when Options.Telemetry is nil.
	telGranted    *telemetry.Counter
	telExpired    *telemetry.Counter
	telSubmits    *telemetry.Counter
	telDuplicates *telemetry.Counter
	telHeartbeats *telemetry.Counter
	telWorkers    *telemetry.Gauge
	telGap        *telemetry.Histogram
	telLeaseDur   *telemetry.Histogram
}

// NewCoordinator builds a coordinator for the campaign. prior holds
// checkpoint-restored outcomes by class index; only the remaining classes
// are sharded into work units, so a resumed distributed campaign redoes
// no work. cfg supplies the outcome-relevant campaign parameters (the
// timeout budget) that are hashed into the identity and shipped to
// workers.
func NewCoordinator(t campaign.Target, golden *trace.Golden, fs *pruning.FaultSpace, cfg campaign.Config, opts Options, prior map[int]campaign.Outcome) (*Coordinator, error) {
	opts = opts.withDefaults()
	if opts.MaxGoldenCycles == 0 {
		return nil, fmt.Errorf("cluster: MaxGoldenCycles must be set")
	}
	if err := CheckLeaseTTL(opts.LeaseTTL); err != nil {
		return nil, err
	}
	id, err := t.CampaignIdentity(fs.Kind, cfg)
	if err != nil {
		return nil, fmt.Errorf("cluster: identity: %w", err)
	}
	reg := opts.Telemetry
	c := &Coordinator{
		target:   t,
		golden:   golden,
		space:    fs,
		identity: id,
		opts:     opts,
		start:    time.Now(),
		finished: make(chan struct{}),
		unwatch:  func() bool { return false },
		wake:     make(chan struct{}),
		holds: Holds{
			Held: reg.Gauge("cluster.lease_held"),
			Took: reg.Histogram("cluster.lease_hold"),
		},
	}
	c.telGranted = reg.Counter("cluster.leases_granted")
	c.telExpired = reg.Counter("cluster.leases_expired")
	c.telSubmits = reg.Counter("cluster.submissions")
	c.telDuplicates = reg.Counter("cluster.duplicate_submits")
	c.telHeartbeats = reg.Counter("cluster.heartbeats")
	c.telWorkers = reg.Gauge("cluster.active_workers")
	c.telGap = reg.Histogram("cluster.heartbeat_gap")
	c.telLeaseDur = reg.Histogram("cluster.lease_duration")
	spec, err := NewSpec(t, fs.Kind, cfg, opts.MaxGoldenCycles, uint64(len(fs.Classes)))
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	spec.LeaseTTL = opts.LeaseTTL
	// Wire the fleet timeline. A registry with span tracing enabled (the
	// favscan -trace serve path) contributes its recorder so local and
	// fleet spans merge into one timeline under the registry's trace ID;
	// otherwise the coordinator records into its own recorder under the
	// spec's ID (Options.TraceID when a service passed one through).
	if rec := reg.SpanRecorder(); rec != nil {
		c.spans = rec
		spec.TraceID = rec.TraceID()
	} else {
		if !opts.TraceID.IsZero() {
			spec.TraceID = opts.TraceID
		}
		c.spans = telemetry.NewSpanRecorder(spec.TraceID, "coordinator", timelineCapacity)
	}
	c.traceID = spec.TraceID
	c.spec = EncodeSpec(spec)

	for ci, o := range prior {
		if ci < 0 || ci >= len(fs.Classes) {
			return nil, fmt.Errorf("cluster: prior class index %d outside [0, %d)", ci, len(fs.Classes))
		}
		if !o.Known() {
			return nil, fmt.Errorf("cluster: prior class %d has unknown outcome %d", ci, o)
		}
	}
	var todo []int
	for i := range fs.Classes {
		if _, ok := prior[i]; !ok {
			todo = append(todo, i)
		}
	}
	// Carve units in injection order: class indices are (Slot, Bit)-sorted
	// by construction, and this stable sort turns that into an explicit
	// contract of the carving rather than an accident of the pruning
	// layer — fork-strategy workers batch each leased unit along rung
	// boundaries and rely on ascending injection cycles for their monotone
	// golden cursor (internal/campaign forkProvider).
	sort.SliceStable(todo, func(i, j int) bool {
		return fs.Classes[todo[i]].Slot() < fs.Classes[todo[j]].Slot()
	})
	var units [][]int
	for len(todo) > 0 {
		n := min(opts.UnitSize, len(todo))
		units = append(units, todo[:n])
		todo = todo[n:]
	}
	c.state = lease.New(c.start, opts.LeaseTTL, len(fs.Classes), prior, units)
	c.mu.Lock()
	if c.state.Remaining() == 0 {
		c.finishLocked(c.start)
	} else if ctx := opts.Context; ctx != nil {
		// Held requests wait on the wake signal, so the interrupt must be
		// a step of its own, not only something Wait notices.
		c.stopped = ctx.Done()
		c.unwatch = context.AfterFunc(ctx, func() {
			c.mu.Lock()
			defer c.mu.Unlock()
			c.interruptLocked()
		})
	}
	c.emitLocked(false)
	c.mu.Unlock()
	return c, nil
}

// Identity returns the campaign identity hash the coordinator admits.
func (c *Coordinator) Identity() [32]byte { return c.identity }

// TraceID returns the campaign's trace ID (shipped to workers in the
// handshake spec).
func (c *Coordinator) TraceID() telemetry.TraceID { return c.traceID }

// Timeline returns the merged fleet span timeline so far (sorted by
// start time) and how many spans were dropped at capacity.
func (c *Coordinator) Timeline() ([]telemetry.Span, uint64) {
	return c.spans.Spans(), c.spans.Dropped()
}

// Spans returns the recorder of the merged fleet timeline, which outlives
// the coordinator for whoever keeps serving it.
func (c *Coordinator) Spans() *telemetry.SpanRecorder { return c.spans }

func (c *Coordinator) step(ev lease.Event) lease.Effects {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stepLocked(ev)
}

// stepLocked applies one event at the current time and its effects.
func (c *Coordinator) stepLocked(ev lease.Event) lease.Effects {
	now := time.Now()
	eff := c.state.Step(now, ev)
	if c.opts.OnResult != nil {
		for _, e := range eff.Merged {
			c.opts.OnResult(e.Class, campaign.Outcome(e.Outcome))
		}
	}
	switch {
	case ev.Kind == lease.Ask && eff.Reply.Status == lease.Granted:
		c.telGranted.Inc()
		if !c.rampedUp {
			c.rampedUp = true
			c.spans.Add(telemetry.Span{
				Scope:  "coordinator",
				Name:   "campaign.rampup",
				Detail: "campaign start to first lease grant",
				Start:  c.start,
				Dur:    now.Sub(c.start),
			})
		}
	case ev.Kind == lease.Submit && eff.Reply.Err == nil:
		c.telSubmits.Inc()
		c.telDuplicates.Add(uint64(len(ev.Entries) - len(eff.Merged)))
	}
	for _, n := range eff.Notes {
		c.observe(now, n)
	}
	if eff.Done {
		c.finishLocked(now)
	}
	if eff.Wake {
		close(c.wake)
		c.wake = make(chan struct{})
	}
	c.armLocked(eff.Next)
	return eff
}

// observe turns a step's note into counters, marks and spans.
func (c *Coordinator) observe(now time.Time, n lease.Note) {
	switch n.Kind {
	case lease.Joined:
		c.telWorkers.Add(1)
		if n.Rejoin {
			c.spans.Mark("worker.joined", n.Worker+" (rejoined)")
		} else {
			c.spans.Mark("worker.joined", n.Worker)
		}
	case lease.Left:
		c.telWorkers.Add(-1)
		c.spans.Mark("worker.left", n.Worker)
	case lease.Expired:
		c.telExpired.Inc()
		c.spans.Mark("lease.expired", fmt.Sprintf("unit %d reclaimed from %s", n.Unit, n.Worker))
	case lease.Closed:
		// Grant → full merge is the coordinator's view of the unit's life.
		d := now.Sub(n.At)
		c.spans.Add(telemetry.Span{
			Scope:  "coordinator",
			Name:   "unit.lease",
			Detail: fmt.Sprintf("unit %d (%d classes) by %s", n.Unit, n.Classes, n.Worker),
			Start:  n.At,
			Dur:    d,
		})
		c.telLeaseDur.Observe(d)
	case lease.Beat:
		c.telGap.Observe(n.Gap)
	}
}

// armLocked keeps the one timer at the next lease deadline.
func (c *Coordinator) armLocked(next time.Time) {
	if next.Equal(c.armed) {
		return
	}
	c.armed = next
	switch {
	case next.IsZero():
		if c.timer != nil {
			c.timer.Stop()
		}
	case c.timer == nil:
		c.timer = time.AfterFunc(time.Until(next), c.tick)
	default:
		c.timer.Reset(time.Until(next))
	}
}

func (c *Coordinator) tick() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.armed = time.Time{}
	c.stepLocked(lease.Event{Kind: lease.Tick})
}

// finishLocked closes finished once, recording the campaign root span.
func (c *Coordinator) finishLocked(now time.Time) {
	select {
	case <-c.finished:
	default:
		c.unwatch()
		c.spans.Add(telemetry.Span{
			Scope:  "coordinator",
			Name:   "campaign",
			Detail: c.target.Name + " " + c.space.Kind.String(),
			Start:  c.start,
			Dur:    now.Sub(c.start),
		})
		close(c.finished)
	}
}

// Wait blocks until every class has an outcome (returning the complete
// result) or Options.Context is cancelled (returning the partial result
// with campaign.ErrInterrupted). A campaign complete by then is complete,
// however its context ends. Late in-flight submissions keep merging — and
// reaching OnResult — until Seal is called. Any number may wait — the
// service that hosts the campaign and whoever handed it the campaign —
// and the final progress event goes out once.
func (c *Coordinator) Wait() (*campaign.Result, error) {
	select {
	case <-c.finished:
	case <-c.stopped:
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.interruptLocked()
	if !c.waited {
		c.waited = true
		c.emitLocked(true)
	}
	return &campaign.Result{
		Target:   c.target,
		Golden:   c.golden,
		Space:    c.space,
		Outcomes: c.state.Outcomes(),
		Identity: c.identity,
		Pending:  c.state.Remaining(),
	}, err
}

// Seal stops result merging: subsequent submissions are rejected with
// lease.ErrSealed and OnResult will not be invoked again. Call it before
// closing a checkpoint writer, so no late submission can race a closed
// writer.
func (c *Coordinator) Seal() {
	c.step(lease.Event{Kind: lease.Seal})
	c.unwatch()
}

// interruptLocked stops a campaign that still has classes to run and
// reports ErrInterrupted; a complete campaign stays complete, however its
// context ends.
func (c *Coordinator) interruptLocked() error {
	if c.state.Remaining() == 0 {
		return nil
	}
	c.stepLocked(lease.Event{Kind: lease.Interrupt})
	return campaign.ErrInterrupted
}

// WaitDrained blocks until every worker that ever joined has left again
// and every lease ask has its answer out, or the timeout has passed, and
// reports which: the bounded grace period a finished or interrupted
// campaign gives its fleet to fetch the done/shutdown answer and say
// hello once more.
func (c *Coordinator) WaitDrained(timeout time.Duration) bool {
	t := time.NewTimer(timeout)
	defer t.Stop()
	for {
		c.mu.Lock()
		drained := c.state.Drained()
		var wake <-chan struct{} = c.wake
		c.mu.Unlock()
		if drained {
			idle := c.holds.Idle()
			select {
			case <-idle:
				return true
			default:
			}
			wake = idle
		}
		select {
		case <-wake:
		case <-t.C:
			return false
		}
	}
}

// Snapshot returns the current progress (also served in the campaign's
// status).
func (c *Coordinator) Snapshot() Progress {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state.Progress(time.Now(), false)
}

// --- worker messages ------------------------------------------------------

// Hello is a worker's handshake (lease.Hello): it returns the encoded
// spec when the worker has joined the campaign, nil when it is dismissed.
func (c *Coordinator) Hello(workerID string) []byte {
	if c.step(lease.Event{Kind: lease.Hello, Worker: workerID}).Reply.Status != lease.Granted {
		return nil
	}
	return c.spec
}

// Leave takes a worker out of the campaign (lease.Leave): whatever it
// still holds goes back to pending without waiting for the lease to
// expire.
func (c *Coordinator) Leave(workerID string) {
	c.step(lease.Event{Kind: lease.Leave, Worker: workerID})
}

// Ask is a worker's lease request (lease.Ask). An answer that would be
// UnitWait is held until a step wakes it — a unit pending again, the
// campaign over — the deadline passes or ctx ends; each look is an ask of
// its own. The ask counts as unanswered, for WaitDrained, until the caller
// calls answered once the unit is written out.
func (c *Coordinator) Ask(ctx context.Context, q LeaseRequest, deadline time.Time) (u WorkUnit, answered func()) {
	var reply lease.Reply
	answered = c.holds.Park(ctx, deadline, func() <-chan struct{} {
		c.mu.Lock()
		defer c.mu.Unlock()
		if reply = c.stepLocked(lease.Event{Kind: lease.Ask, Worker: q.WorkerID}).Reply; reply.Status != lease.Wait {
			return nil
		}
		return c.wake
	})
	return WorkUnit{Status: uint8(reply.Status), ID: reply.Unit, Token: reply.Token, Classes: reply.Classes}, answered
}

// Submit merges a worker's results (lease.Submit) and adds the spans it
// shipped to the timeline. A sealed campaign refuses it with
// lease.ErrSealed, a malformed one with another error.
func (c *Coordinator) Submit(s Submission) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.stepLocked(lease.Event{Kind: lease.Submit, Worker: s.WorkerID, Unit: s.UnitID, Entries: s.Entries}).Reply.Err
	if err != nil {
		return err
	}
	// The scope is the submitting worker's ID, never the wire's: a worker
	// cannot attribute spans to another.
	for _, sp := range s.Spans {
		sp.Scope = s.WorkerID
		c.spans.Add(sp)
	}
	if c.opts.OnProgress != nil &&
		(c.opts.ProgressInterval < 0 || time.Since(c.lastEmit) >= c.opts.ProgressInterval) {
		c.emitLocked(false)
	}
	return nil
}

// Heartbeat extends the worker's leases on the units it lists
// (lease.Heartbeat).
func (c *Coordinator) Heartbeat(h Heartbeat) {
	c.step(lease.Event{Kind: lease.Heartbeat, Worker: h.WorkerID, Units: h.Units})
	c.telHeartbeats.Inc()
}

func (c *Coordinator) emitLocked(final bool) {
	if c.opts.OnProgress == nil {
		return
	}
	now := time.Now()
	c.lastEmit = now
	c.opts.OnProgress(c.state.Progress(now, final))
}
