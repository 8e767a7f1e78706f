package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"time"

	"faultspace/internal/campaign"
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
	// Interrupt, when closed, stops the campaign: leases stop being
	// granted, Wait returns the partial result with ErrInterrupted.
	Interrupt <-chan struct{}
	// Telemetry, when non-nil, receives cluster metrics (lease grants and
	// expiries, submissions, duplicate submits, heartbeats and their gap
	// histogram; see DESIGN.md §4d), served in /v1/status and /metrics.
	// Purely observational: it never changes what the coordinator
	// computes.
	Telemetry *telemetry.Registry
	// TraceID overrides the campaign trace ID minted by NewSpec — the
	// service passes a submitted campaign's ID through so the fleet's
	// spans correlate with the submission. Zero keeps the minted one.
	// The trace ID is observability identity only and never feeds the
	// campaign identity hash (invariant 15).
	TraceID telemetry.TraceID
	// Pprof additionally mounts net/http/pprof under /debug/pprof/ on
	// Handler() — opt-in, for live profiling of a long cluster scan.
	Pprof bool
	// rateWindow is a test seam: the averaging window of the per-worker
	// rates (default defaultRateWindow).
	rateWindow time.Duration
}

// Defaults for Options, and the coordinator's fixed settings.
const (
	DefaultUnitSize = 256
	DefaultLeaseTTL = 10 * time.Second
	// defaultRateWindow is the averaging window for the per-worker
	// experiments-per-second rates in /v1/status. Rates cover the last
	// full window, so an idle worker's rate decays to zero instead of being
	// diluted over its whole session.
	defaultRateWindow = 5 * time.Second
	// timelineCapacity bounds the merged campaign timeline: the
	// coordinator's own spans plus every span workers ship back with
	// submissions — four times a single recorder's default, since the
	// coordinator aggregates a whole fleet. Beyond capacity the newest
	// spans are dropped and the loss is self-described via the recorder's
	// drop counter in /v1/status.
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
	if o.rateWindow == 0 {
		o.rateWindow = defaultRateWindow
	}
	return o
}

// WorkerStat is one worker's slice of a cluster Progress event. The
// JSON field names are the /v1/status wire contract.
type WorkerStat struct {
	ID string `json:"id"`
	// Experiments counts entries this worker submitted, including
	// re-executions of reassigned units — the work it actually performed.
	Experiments int `json:"experiments"`
	// Merged counts the outcomes this worker contributed first.
	Merged int `json:"merged"`
	// Rate is the worker's experiments-per-second over the last full
	// rate window, 5 s (the partial current window before the first
	// window completes), so it tracks what the worker is doing now — an
	// idle worker's rate decays to zero within a window instead of being
	// diluted over its whole session.
	Rate float64 `json:"expPerSec"`
	// Outstanding is the number of units the worker currently holds.
	Outstanding int `json:"outstanding"`
}

// Progress is one event of a distributed campaign's progress stream: the
// regular campaign progress plus cluster-level statistics.
type Progress struct {
	campaign.Progress
	// OutstandingLeases is the number of currently leased units.
	OutstandingLeases int
	// Reassignments counts units whose lease expired and were handed to
	// another worker.
	Reassignments int
	// Workers holds per-worker statistics, sorted by ID.
	Workers []WorkerStat
}

type unitState uint8

const (
	unitPending unitState = iota
	unitLeased
	unitDone
)

type unit struct {
	id       uint64
	classes  []int
	state    unitState
	token    uint64
	owner    string
	deadline time.Time
	// grantedAt is when the current lease was granted; it anchors the
	// unit.lease span.
	grantedAt time.Time
}

type workerInfo struct {
	id          string
	experiments int
	merged      int
	outstanding int
	joined      time.Time
	left        bool
	// lastHeartbeat feeds the cluster.heartbeat_gap histogram: the time
	// between a worker's consecutive heartbeats. Zero until the first one.
	lastHeartbeat time.Time
	// Windowed-rate state: experiments counted up to winStart, and the
	// rate of the last completed window (valid once hasRate is set).
	winStart time.Time
	winExp   int
	rate     float64
	hasRate  bool
}

// Coordinator shards a campaign into leased work units and merges the
// outcomes workers stream back. It is an http.Handler; all state is
// guarded by one mutex, which also serializes the OnResult checkpoint
// hook.
type Coordinator struct {
	target   campaign.Target
	golden   *trace.Golden
	space    *pruning.FaultSpace
	identity [32]byte
	spec     []byte // encoded handshake frame
	opts     Options
	mux      *http.ServeMux

	mu sync.Mutex
	// tally is the campaign's running account, the one the local scan's
	// meter keeps: progress events and /v1/status are built from it.
	tally       campaign.Tally
	units       []*unit
	pending     []*unit // LIFO of grantable units
	leased      int
	outcomes    []campaign.Outcome
	have        []bool
	lastEmit    time.Time
	reassigned  int
	workers     map[string]*workerInfo
	nextToken   uint64
	interrupted bool
	sealed      bool
	finished    chan struct{}
	// expiry caches the earliest deadline among the outstanding leases
	// (zero: none) while expiryKnown; whatever grants, extends or ends a
	// lease keeps it current or clears expiryKnown (nextExpiryLocked).
	expiry      time.Time
	expiryKnown bool
	// wake is closed and replaced (wakeLocked) whenever an answer a parked
	// request is waiting for may have changed: a unit went back to pending,
	// the campaign finished, the coordinator was sealed, a worker left.
	wake chan struct{}

	// Fleet timeline: the campaign trace ID from the spec and the merged
	// span recorder (the coordinator's own spans plus the spans workers
	// ship back with submissions), served at /v1/trace. rampedUp latches
	// the one-shot campaign.rampup span covering campaign start to the
	// first lease grant — the time-to-first-work a fleet operator cares
	// about, and otherwise a dark region at the head of every timeline.
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
	telLeaseHold  *telemetry.Histogram
	telLeaseHeld  *telemetry.Gauge
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
	c := &Coordinator{
		target:   t,
		golden:   golden,
		space:    fs,
		identity: id,
		opts:     opts,
		outcomes: make([]campaign.Outcome, len(fs.Classes)),
		have:     make([]bool, len(fs.Classes)),
		workers:  make(map[string]*workerInfo),
		tally:    campaign.Tally{Total: len(fs.Classes), Start: time.Now()},
		finished: make(chan struct{}),
		wake:     make(chan struct{}),
	}
	c.mux = c.routes()
	reg := opts.Telemetry
	c.telGranted = reg.Counter("cluster.leases_granted")
	c.telExpired = reg.Counter("cluster.leases_expired")
	c.telSubmits = reg.Counter("cluster.submissions")
	c.telDuplicates = reg.Counter("cluster.duplicate_submits")
	c.telHeartbeats = reg.Counter("cluster.heartbeats")
	c.telWorkers = reg.Gauge("cluster.active_workers")
	c.telGap = reg.Histogram("cluster.heartbeat_gap")
	c.telLeaseDur = reg.Histogram("cluster.lease_duration")
	c.telLeaseHold = reg.Histogram("cluster.lease_hold")
	c.telLeaseHeld = reg.Gauge("cluster.lease_held")
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
		c.outcomes[ci] = o
		c.have[ci] = true
		c.tally.Restore(o)
	}

	var todo []int
	for i := range fs.Classes {
		if !c.have[i] {
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
	for len(todo) > 0 {
		n := opts.UnitSize
		if n > len(todo) {
			n = len(todo)
		}
		u := &unit{id: uint64(len(c.units)), classes: todo[:n]}
		c.units = append(c.units, u)
		todo = todo[n:]
	}
	// Grant units in class order: pending is popped from the tail.
	for i := len(c.units) - 1; i >= 0; i-- {
		c.pending = append(c.pending, c.units[i])
	}
	if c.tally.Remaining() == 0 {
		c.finishLocked()
	}
	c.mu.Lock()
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

// finishLocked closes the finished channel exactly once, recording the
// campaign root span the first time. (Safe without the lock in
// NewCoordinator, before the coordinator is shared.)
func (c *Coordinator) finishLocked() {
	select {
	case <-c.finished:
	default:
		c.spans.Add(telemetry.Span{
			Scope:  "coordinator",
			Name:   "campaign",
			Detail: c.target.Name + " " + c.space.Kind.String(),
			Start:  c.tally.Start,
			Dur:    time.Since(c.tally.Start),
		})
		close(c.finished)
		c.wakeLocked()
	}
}

// wakeLocked releases every parked request to look at the state again.
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// Handler returns the coordinator's HTTP handler. With Options.Pprof
// it additionally serves the standard net/http/pprof endpoints under
// /debug/pprof/ — an observability side door that never touches
// campaign state.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// routes builds the handler once, in NewCoordinator: the campaign service
// asks for it on every worker request it forwards.
func (c *Coordinator) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/handshake", c.handleHandshake)
	mux.HandleFunc("/v1/lease", c.handleLease)
	mux.HandleFunc("/v1/submit", c.handleSubmit)
	mux.HandleFunc("/v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("/v1/status", c.handleStatus)
	mux.HandleFunc("/v1/trace", c.handleTrace)
	mux.HandleFunc("/metrics", c.handleMetrics)
	if c.opts.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// Wait blocks until every class has an outcome (returning the complete
// result) or Options.Interrupt is closed (returning the partial result
// with campaign.ErrInterrupted). Late in-flight submissions keep merging
// — and reaching OnResult — until Seal is called.
func (c *Coordinator) Wait() (*campaign.Result, error) {
	var interrupt <-chan struct{} = c.opts.Interrupt
	select {
	case <-c.finished:
		c.mu.Lock()
		c.emitLocked(true)
		res := c.resultLocked()
		c.mu.Unlock()
		return res, nil
	case <-interrupt:
		c.mu.Lock()
		c.interrupted = true
		c.emitLocked(true)
		res := c.resultLocked()
		c.mu.Unlock()
		return res, campaign.ErrInterrupted
	}
}

// Seal stops result merging: subsequent submissions are rejected with
// 503 and OnResult will not be invoked again. Call it after the HTTP
// server has shut down (or before closing a checkpoint writer) so no
// handler can race a closed writer.
func (c *Coordinator) Seal() {
	c.mu.Lock()
	c.sealed = true
	c.wakeLocked()
	c.mu.Unlock()
}

// drainedLocked reports whether every worker that ever joined has left
// again.
func (c *Coordinator) drainedLocked() bool {
	for _, w := range c.workers {
		if !w.left {
			return false
		}
	}
	return true
}

// WaitDrained blocks until every worker that ever joined has left again
// or the timeout has passed, and reports which: the bounded grace period
// a finished or interrupted campaign gives its fleet to fetch the
// done/shutdown answer and say hello once more.
func (c *Coordinator) WaitDrained(timeout time.Duration) bool {
	t := time.NewTimer(timeout)
	defer t.Stop()
	for {
		c.mu.Lock()
		drained, wake := c.drainedLocked(), c.wake
		c.mu.Unlock()
		if drained {
			return true
		}
		select {
		case <-wake:
		case <-t.C:
			return false
		}
	}
}

// Snapshot returns the current progress (also served at /v1/status).
func (c *Coordinator) Snapshot() Progress {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.progressLocked(false)
}

func (c *Coordinator) resultLocked() *campaign.Result {
	return &campaign.Result{
		Target:   c.target,
		Golden:   c.golden,
		Space:    c.space,
		Outcomes: append([]campaign.Outcome(nil), c.outcomes...),
		Identity: c.identity,
		Pending:  c.tally.Remaining(),
	}
}

// --- HTTP handlers -------------------------------------------------------

// maxBody bounds request and response bodies; submissions are the
// largest legitimate message (a few bytes per class).
const maxBody = 16 << 20

// RequireMethod enforces the single allowed method of an endpoint,
// answering anything else with 405 and an Allow header per RFC 9110.
// Shared with the campaign service's endpoints (internal/service).
func RequireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		http.Error(w, "cluster: "+method+" required", http.StatusMethodNotAllowed)
		return false
	}
	return true
}

// ReadBounded reads a request or response body up to the wire bound. A
// longer one is an error that names the bound, so an oversized message
// never reaches a decoder cut short.
func ReadBounded(r io.Reader) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r, maxBody+1))
	if err != nil {
		return nil, fmt.Errorf("read: %w", err)
	}
	if len(body) > maxBody {
		return nil, fmt.Errorf("body exceeds the %d-byte bound", maxBody)
	}
	return body, nil
}

// ReadBody reads the bounded body of a POST request — the one request
// reader of the coordinator's and the campaign service's endpoints. Any
// other method, a failed read or a body above the bound is answered here
// and reported false.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if !RequireMethod(w, r, http.MethodPost) {
		return nil, false
	}
	body, err := ReadBounded(r.Body)
	if err != nil {
		http.Error(w, "cluster: "+err.Error(), http.StatusBadRequest)
		return nil, false
	}
	return body, true
}

// admit enforces the campaign identity admission check shared by every
// post-handshake endpoint.
func (c *Coordinator) admit(w http.ResponseWriter, id [32]byte) bool {
	if id != c.identity {
		http.Error(w, "cluster: campaign identity mismatch (different program image, fault-space kind or timeout budget)",
			http.StatusConflict)
		return false
	}
	return true
}

// handleHandshake answers a worker's hello: granted, with the campaign
// spec, while there is work to hand out, shutdown once the campaign is
// finished, interrupted or sealed.
func (c *Coordinator) handleHandshake(w http.ResponseWriter, r *http.Request) {
	body, ok := ReadBody(w, r)
	if !ok {
		return
	}
	h, err := DecodeHello(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	reply := HelloReply{Status: HelloShutdown}
	spec := c.Hello(h.WorkerID)
	if spec != nil {
		reply = HelloReply{Status: HelloGranted, Spec: spec}
	}
	WriteWhole(w, EncodeHelloReply(reply))
	if spec == nil {
		// Dismissed — and gone only now that the answer is out: whoever
		// waits for the fleet to drain (WaitDrained) closes the server next,
		// and a dismissal cut off there would leave the worker knocking at a
		// closed port.
		c.Leave(h.WorkerID)
	}
}

// WriteWhole answers a request with one wire message, its length
// announced and the bytes flushed to the connection before it returns: a
// server closed right after — which is what follows a worker's dismissal
// — closes a connection whose answer is complete.
func WriteWhole(w http.ResponseWriter, frame []byte) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	w.Write(frame)
	http.NewResponseController(w).Flush()
}

// Hello joins a worker to the campaign while there is work to hand out,
// and returns the encoded spec; otherwise it returns nil. The worker has
// joined from here on, not from its first lease: between the two it
// rebuilds the campaign, and a campaign that ends meanwhile must still
// wait for it to come back (WaitDrained) rather than close the door on
// it. A worker restarted under the name it had before it died first
// gives back what that one held (Leave), instead of waiting out its own
// stale lease.
func (c *Coordinator) Hello(workerID string) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stoppedLocked() || c.tally.Remaining() == 0 {
		return nil
	}
	c.leaveLocked(workerID)
	c.touchLocked(workerID)
	return c.spec
}

// stoppedLocked reports whether the campaign was interrupted or sealed.
func (c *Coordinator) stoppedLocked() bool {
	select {
	case <-c.opts.Interrupt:
		// Wait may not have noticed yet; a request woken by the same channel
		// must not be told to wait or be granted anything.
		return true
	default:
		return c.interrupted || c.sealed
	}
}

// handleLease grants the asking worker a unit. With ?wait= a would-be
// UnitWait is parked until the answer changes — a unit is pending again
// (returned by a leaving worker, or reclaimed at the earliest outstanding
// lease deadline, for which the parked request itself wakes up), the
// campaign finishes, or the coordinator is interrupted or sealed — or
// the hold runs out, which is answered UnitWait as an unheld ask is.
func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	body, ok := ReadBody(w, r)
	if !ok {
		return
	}
	q, err := DecodeLeaseRequest(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !c.admit(w, q.Identity) {
		return
	}
	hold, ok := ParseHold(w, r)
	if !ok {
		return
	}
	asked := time.Now()

	c.mu.Lock()
	c.touchLocked(q.WorkerID)
	resp := c.leaseLocked(q.WorkerID)
	if resp.Status == UnitWait && hold > 0 {
		c.telLeaseHeld.Add(1)
		expiry := asked.Add(hold)
		for resp.Status == UnitWait {
			now, until := time.Now(), expiry
			if !now.Before(until) {
				break
			}
			if d, ok := c.nextExpiryLocked(); ok && d.Before(until) {
				until = d
			}
			wake := c.wake
			c.mu.Unlock()
			t := time.NewTimer(until.Sub(now))
			select {
			case <-wake:
			case <-t.C:
			case <-c.opts.Interrupt:
			case <-r.Context().Done():
			}
			t.Stop()
			c.mu.Lock()
			if r.Context().Err() != nil {
				// The asker is gone; whatever is pending stays so.
				break
			}
			// Each look is a contact, as the re-poll it replaces was.
			c.touchLocked(q.WorkerID)
			resp = c.leaseLocked(q.WorkerID)
		}
		c.telLeaseHeld.Add(-1)
		c.telLeaseHold.Observe(time.Since(asked))
	}
	c.mu.Unlock()

	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(EncodeWorkUnit(resp))
}

// leaseLocked answers one lease ask from the current state.
func (c *Coordinator) leaseLocked(workerID string) WorkUnit {
	switch {
	case c.stoppedLocked():
		return WorkUnit{Status: UnitShutdown}
	case c.tally.Remaining() == 0:
		return WorkUnit{Status: UnitDone}
	}
	if len(c.pending) == 0 {
		c.reclaimExpiredLocked()
	}
	n := len(c.pending)
	if n == 0 {
		return WorkUnit{Status: UnitWait}
	}
	u := c.pending[n-1]
	c.pending = c.pending[:n-1]
	c.nextToken++
	u.state = unitLeased
	u.token = c.nextToken
	u.owner = workerID
	u.grantedAt = time.Now()
	u.deadline = u.grantedAt.Add(c.opts.LeaseTTL)
	if c.expiryKnown && (c.expiry.IsZero() || u.deadline.Before(c.expiry)) {
		c.expiry = u.deadline
	}
	c.leased++
	c.workers[workerID].outstanding++
	if !c.rampedUp {
		c.rampedUp = true
		c.spans.Add(telemetry.Span{
			Scope:  "coordinator",
			Name:   "campaign.rampup",
			Detail: "campaign start to first lease grant",
			Start:  c.tally.Start,
			Dur:    u.grantedAt.Sub(c.tally.Start),
		})
	}
	c.telGranted.Inc()
	return WorkUnit{Status: UnitGranted, ID: u.id, Token: u.token, Classes: u.classes}
}

// nextExpiryLocked returns the earliest deadline among the outstanding
// leases: when a parked lease request must look again so that
// reclaimExpiredLocked runs on time even though nobody polls. The scan
// over the units runs once per change to the leased set, not once per
// asker: a wake-up releases every parked request at the same time.
func (c *Coordinator) nextExpiryLocked() (time.Time, bool) {
	if !c.expiryKnown {
		c.expiry = time.Time{}
		for _, u := range c.units {
			if u.state == unitLeased && (c.expiry.IsZero() || u.deadline.Before(c.expiry)) {
				c.expiry = u.deadline
			}
		}
		c.expiryKnown = true
	}
	return c.expiry, !c.expiry.IsZero()
}

// reclaimExpiredLocked returns expired leases to the pending pool.
func (c *Coordinator) reclaimExpiredLocked() {
	now := time.Now()
	if first, ok := c.nextExpiryLocked(); !ok || !now.After(first) {
		return
	}
	c.expiryKnown = false
	for _, u := range c.units {
		if u.state == unitLeased && now.After(u.deadline) {
			u.state = unitPending
			c.leased--
			if wi := c.workers[u.owner]; wi != nil && wi.outstanding > 0 {
				wi.outstanding--
			}
			c.telExpired.Inc()
			c.spans.Mark("lease.expired", fmt.Sprintf("unit %d reclaimed from %s", u.id, u.owner))
			u.owner = ""
			c.pending = append(c.pending, u)
			c.reassigned++
		}
	}
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := ReadBody(w, r)
	if !ok {
		return
	}
	s, err := DecodeSubmission(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !c.admit(w, s.Identity) {
		return
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sealed {
		http.Error(w, "cluster: coordinator sealed", http.StatusServiceUnavailable)
		return
	}
	if s.UnitID >= uint64(len(c.units)) {
		http.Error(w, fmt.Sprintf("cluster: unknown unit %d", s.UnitID), http.StatusBadRequest)
		return
	}
	u := c.units[s.UnitID]
	for _, e := range s.Entries {
		// A unit's class list is ascending (NewCoordinator carves it so).
		if i := sort.SearchInts(u.classes, e.Class); i == len(u.classes) || u.classes[i] != e.Class {
			http.Error(w, fmt.Sprintf("cluster: class %d not part of unit %d", e.Class, s.UnitID), http.StatusBadRequest)
			return
		}
		if !campaign.Outcome(e.Outcome).Known() {
			http.Error(w, fmt.Sprintf("cluster: unknown outcome %d", e.Outcome), http.StatusBadRequest)
			return
		}
	}

	wi := c.touchLocked(s.WorkerID)
	wi.experiments += len(s.Entries)
	c.telSubmits.Inc()
	// Merge the worker's spans into the fleet timeline. The scope is
	// stamped from the authenticated-by-admission worker ID, never taken
	// from the wire, so a worker cannot attribute spans to another.
	for _, sp := range s.Spans {
		sp.Scope = s.WorkerID
		c.spans.Add(sp)
	}
	// Idempotent merge: outcomes are deterministic, so the first record
	// for a class is as good as any duplicate — including submissions
	// under a stale lease token after a reassignment.
	for _, e := range s.Entries {
		if c.have[e.Class] {
			c.telDuplicates.Inc()
			continue
		}
		o := campaign.Outcome(e.Outcome)
		c.have[e.Class] = true
		c.outcomes[e.Class] = o
		c.tally.Record(o)
		wi.merged++
		if c.opts.OnResult != nil {
			c.opts.OnResult(e.Class, o)
		}
	}
	if len(s.Entries) == len(u.classes) && u.state != unitDone {
		if u.state == unitLeased {
			c.leased--
			c.expiryKnown = false
			if owner := c.workers[u.owner]; owner != nil && owner.outstanding > 0 {
				owner.outstanding--
			}
			// Close out the lease: grant → full merge is the coordinator's
			// view of the unit's life.
			if !u.grantedAt.IsZero() {
				d := time.Since(u.grantedAt)
				c.spans.Add(telemetry.Span{
					Scope:  "coordinator",
					Name:   "unit.lease",
					Detail: fmt.Sprintf("unit %d (%d classes) by %s", u.id, len(u.classes), u.owner),
					Start:  u.grantedAt,
					Dur:    d,
				})
				c.telLeaseDur.Observe(d)
			}
		} else {
			// The unit's lease had already expired and it went back to the
			// pending pool; drop it from there so nobody re-runs it.
			for i, p := range c.pending {
				if p == u {
					c.pending = append(c.pending[:i], c.pending[i+1:]...)
					break
				}
			}
		}
		u.state = unitDone
		u.owner = ""
	}
	if c.opts.OnProgress != nil &&
		(c.opts.ProgressInterval < 0 || time.Since(c.lastEmit) >= c.opts.ProgressInterval) {
		c.emitLocked(false)
	}
	if c.tally.Remaining() == 0 {
		c.finishLocked()
	}
	w.WriteHeader(http.StatusOK)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	body, ok := ReadBody(w, r)
	if !ok {
		return
	}
	h, err := DecodeHeartbeat(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !c.admit(w, h.Identity) {
		return
	}
	c.mu.Lock()
	wi := c.touchLocked(h.WorkerID)
	c.telHeartbeats.Inc()
	now := time.Now()
	if !wi.lastHeartbeat.IsZero() {
		c.telGap.Observe(now.Sub(wi.lastHeartbeat))
	}
	wi.lastHeartbeat = now
	for _, id := range h.Units {
		if id < uint64(len(c.units)) {
			u := c.units[id]
			if u.state == unitLeased && u.owner == h.WorkerID {
				u.deadline = now.Add(c.opts.LeaseTTL)
				c.expiryKnown = false
			}
		}
	}
	c.mu.Unlock()
	w.WriteHeader(http.StatusOK)
}

// Leave takes a worker out of the campaign: whatever it still holds goes
// back to pending without waiting for the lease to expire, and the fleet
// may now be drained. A name that never joined, or has left already, is a
// no-op.
func (c *Coordinator) Leave(workerID string) {
	c.mu.Lock()
	c.leaveLocked(workerID)
	c.mu.Unlock()
}

func (c *Coordinator) leaveLocked(workerID string) {
	wi := c.workers[workerID]
	if wi == nil || wi.left {
		return
	}
	wi.left = true
	c.telWorkers.Add(-1)
	c.spans.Mark("worker.left", workerID)
	// A voluntary return is not a reassignment.
	for _, u := range c.units {
		if u.state == unitLeased && u.owner == workerID {
			u.state = unitPending
			u.owner = ""
			c.leased--
			c.expiryKnown = false
			c.pending = append(c.pending, u)
		}
	}
	wi.outstanding = 0
	c.wakeLocked()
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	if !RequireMethod(w, r, http.MethodGet) {
		return
	}
	p := c.Snapshot()
	resp := struct {
		Name     string `json:"name"`
		Space    string `json:"space"`
		Done     int    `json:"done"`
		Total    int    `json:"total"`
		Failures uint64 `json:"failures"`
		// Attacks counts classes whose outcome satisfied the campaign's
		// attacker objective (0 without one).
		Attacks       uint64  `json:"attacks"`
		Rate          float64 `json:"expPerSec"`
		Leases        int     `json:"outstandingLeases"`
		Reassignments int     `json:"reassignments"`
		// Workers carries each worker's session statistics, including its
		// windowed experiments-per-second rate.
		Workers []WorkerStat `json:"workers"`
		// TraceID names the campaign timeline /v1/trace serves; Spans is
		// how many spans and marks it holds, SpansDropped how many a full
		// recorder discarded and SpansCapacity its size.
		TraceID       string `json:"traceId,omitempty"`
		Spans         int    `json:"spans,omitempty"`
		SpansDropped  uint64 `json:"spansDropped,omitempty"`
		SpansCapacity int    `json:"spansCapacity,omitempty"`
		// Telemetry is the coordinator's live instrument snapshot; absent
		// when the coordinator runs without a registry.
		Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
	}{
		Name: c.target.Name, Space: c.space.Kind.String(),
		Done: p.Done, Total: p.Total, Failures: p.Failures(),
		Attacks: p.Attacks,
		Rate:    p.Rate, Leases: p.OutstandingLeases,
		Reassignments: p.Reassignments, Workers: p.Workers,
	}
	if !c.traceID.IsZero() {
		resp.TraceID = c.traceID.String()
		resp.Spans = c.spans.Len()
		resp.SpansDropped = c.spans.Dropped()
		resp.SpansCapacity = c.spans.Cap()
	}
	if c.opts.Telemetry != nil {
		snap := c.opts.Telemetry.Snapshot()
		resp.Telemetry = &snap
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// handleTrace serves the merged fleet span timeline: Chrome trace-event
// JSON by default (loadable in Perfetto / chrome://tracing), one JSON
// object per span with ?format=jsonl.
func (c *Coordinator) handleTrace(w http.ResponseWriter, r *http.Request) {
	if !RequireMethod(w, r, http.MethodGet) {
		return
	}
	if c.traceID.IsZero() {
		http.Error(w, "cluster: span tracing disabled for this campaign", http.StatusNotFound)
		return
	}
	spans, _ := c.Timeline()
	if r.URL.Query().Get("format") == "jsonl" {
		w.Header().Set("Content-Type", "application/jsonl")
		telemetry.WriteSpansJSONL(w, c.traceID, spans)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	telemetry.WriteChromeTrace(w, c.traceID, spans)
}

// handleMetrics serves the Prometheus text exposition: the registry's
// instruments (when one is configured) plus synthetic per-worker series
// labelled by worker ID, derived from the same statistics /v1/status
// reports.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !RequireMethod(w, r, http.MethodGet) {
		return
	}
	p := c.Snapshot()
	sets := make([]telemetry.MetricSet, 0, 1+len(p.Workers))
	if c.opts.Telemetry != nil {
		sets = append(sets, telemetry.MetricSet{Snap: c.opts.Telemetry.Snapshot()})
	}
	for _, ws := range p.Workers {
		snap := telemetry.Snapshot{
			Counters: map[string]uint64{
				"cluster.worker.experiments": uint64(ws.Experiments),
				"cluster.worker.merged":      uint64(ws.Merged),
			},
			Gauges: map[string]int64{
				"cluster.worker.outstanding": int64(ws.Outstanding),
			},
		}
		sets = append(sets, telemetry.MetricSet{
			Labels: map[string]string{"worker": ws.ID},
			Snap:   snap,
		})
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	telemetry.WritePrometheusSets(w, sets)
}

// --- progress ------------------------------------------------------------

func (c *Coordinator) touchLocked(workerID string) *workerInfo {
	wi := c.workers[workerID]
	if wi == nil {
		now := time.Now()
		wi = &workerInfo{id: workerID, joined: now, winStart: now}
		c.workers[workerID] = wi
		c.telWorkers.Add(1)
		c.spans.Mark("worker.joined", workerID)
	} else if wi.left {
		// A worker that left and came back counts as active again.
		c.telWorkers.Add(1)
		c.spans.Mark("worker.joined", workerID+" (rejoined)")
	}
	wi.left = false
	return wi
}

func (c *Coordinator) progressLocked(final bool) Progress {
	now := time.Now()
	p := Progress{
		Progress:          c.tally.Progress(now, final),
		OutstandingLeases: c.leased,
		Reassignments:     c.reassigned,
	}
	for _, wi := range c.workers {
		ws := WorkerStat{
			ID:          wi.id,
			Experiments: wi.experiments,
			Merged:      wi.merged,
			Outstanding: wi.outstanding,
		}
		// Roll the rate window forward: each elapsed window becomes the
		// reported rate, so the stat reflects recent throughput. Several
		// windows may have passed since the last progress computation — the
		// experiments since winStart then spread over all of them, and a
		// fully idle stretch decays the rate to zero.
		if d := now.Sub(wi.winStart); d >= c.opts.rateWindow {
			windows := float64(d) / float64(c.opts.rateWindow)
			wi.rate = float64(wi.experiments-wi.winExp) / (windows * c.opts.rateWindow.Seconds())
			wi.hasRate = true
			wi.winStart = now
			wi.winExp = wi.experiments
		}
		if wi.hasRate {
			ws.Rate = wi.rate
		} else if d := now.Sub(wi.winStart); d > 0 && wi.experiments > wi.winExp {
			// Before the first full window: the partial-window rate.
			ws.Rate = float64(wi.experiments-wi.winExp) / d.Seconds()
		}
		p.Workers = append(p.Workers, ws)
	}
	sort.Slice(p.Workers, func(i, j int) bool { return p.Workers[i].ID < p.Workers[j].ID })
	return p
}

func (c *Coordinator) emitLocked(final bool) {
	if c.opts.OnProgress == nil {
		return
	}
	c.lastEmit = time.Now()
	c.opts.OnProgress(c.progressLocked(final))
}
