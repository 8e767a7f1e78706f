package service

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"faultspace/internal/archive"
	"faultspace/internal/cluster"
	"faultspace/internal/cluster/lease"
	"faultspace/internal/frame"
	"faultspace/internal/telemetry"
)

// Options parameterizes a Service.
type Options struct {
	// Dir is the archive directory for the content-addressed result
	// store. Empty disables persistence (results are kept in memory for
	// the life of the process only).
	Dir string
	// MaxArchiveBytes caps the on-disk archive size; least-recently-used
	// entries are evicted beyond it. 0 = unbounded.
	MaxArchiveBytes int64
	// MaxActive bounds the campaigns running concurrently on the shared
	// fleet (default 2). Further admitted campaigns queue.
	MaxActive int
	// MaxQueued bounds the campaigns waiting across all tenants (default
	// 16). Beyond it submissions are rejected with 429 and a Retry-After
	// hint — the backpressure signal.
	MaxQueued int
	// UnitSize and LeaseTTL parameterize each campaign's coordinator
	// (defaults cluster.DefaultUnitSize / cluster.DefaultLeaseTTL).
	UnitSize int
	LeaseTTL time.Duration
	// Telemetry, when non-nil, receives service-level metrics (queue
	// depth, active campaigns, archive hit/miss counters, handshake
	// holds), served in /v1/status and /metrics.
	Telemetry *telemetry.Registry
	// Logf, when non-nil, receives service life-cycle log lines.
	Logf func(format string, args ...any)
}

// Defaults for Options.
const (
	DefaultMaxActive = 2
	DefaultMaxQueued = 16
)

func (o Options) withDefaults() Options {
	if o.MaxActive == 0 {
		o.MaxActive = DefaultMaxActive
	}
	if o.MaxQueued == 0 {
		o.MaxQueued = DefaultMaxQueued
	}
	if o.UnitSize == 0 {
		o.UnitSize = cluster.DefaultUnitSize
	}
	if o.LeaseTTL == 0 {
		o.LeaseTTL = cluster.DefaultLeaseTTL
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Campaign lifecycle states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateCancelled = "cancelled"
	StateFailed    = "failed"
)

// entry is one submitted campaign's service-side state, guarded by the
// service mutex except where noted.
type entry struct {
	id     [32]byte
	idHex  string
	tenant string
	spec   cluster.Spec

	state  string
	cached bool   // done without execution: served from the archive
	errMsg string // for StateFailed

	// reg is the campaign's own telemetry registry: its coordinator's
	// cluster.* counters and — for in-process fleet workers — its
	// engine's scan.*, fork.* and predecode counters land here,
	// isolated from every other campaign in the process.
	reg *telemetry.Registry
	// coord is set while the campaign runs, and grants the campaign to
	// handshaking workers while it has work to hand out (it ships the
	// service's LeaseTTL in its spec). retire drops it — with its
	// golden trace, fault space, outcome arrays and unit table — and
	// keeps what the endpoints go on serving: the classes done (all of
	// them for an archive hit), the attack count and the timeline (nil
	// when the campaign never ran).
	coord       *cluster.Coordinator
	doneClasses int
	attacks     uint64
	spans       []telemetry.Span
	// ctx is the running campaign's coordinator context; cancel
	// interrupts the campaign (cancel endpoint or service drain) and lets
	// go of a retired one.
	ctx    context.Context
	cancel context.CancelFunc
	report []byte        // archive.Encode bytes, set when done
	done   chan struct{} // closed on done/cancelled/failed
}

// CampaignStatus is the JSON status of one campaign, served by the
// lifecycle endpoints and embedded in /v1/status.
type CampaignStatus struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Tenant string `json:"tenant"`
	State  string `json:"state"`
	// Cached reports that the campaign completed without executing a
	// single experiment: its report came from the result archive.
	Cached bool `json:"cached,omitempty"`
	Done   int  `json:"done"`
	Total  int  `json:"total"`
	// Objective is the campaign's attacker-objective name ("" = none);
	// Attacks counts classes whose outcome satisfied it so far.
	Objective string `json:"objective,omitempty"`
	Attacks   uint64 `json:"attacks,omitempty"`
	Error     string `json:"error,omitempty"`
	// TraceID is the campaign's 128-bit trace ID (hex) when span tracing
	// is on — the correlation key for /v1/campaigns/<id>/trace.
	TraceID string `json:"traceId,omitempty"`
	// Telemetry is the campaign's own registry snapshot — per-campaign
	// cluster and engine counters, not process globals.
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
}

// Terminal reports whether the campaign has reached a final state.
func (c CampaignStatus) Terminal() bool {
	switch c.State {
	case StateDone, StateCancelled, StateFailed:
		return true
	}
	return false
}

// Service is a long-lived multi-campaign coordinator with per-tenant
// fair scheduling and a content-addressed result archive. It is an
// http.Handler factory (Handler) speaking both the campaign lifecycle
// API (/v1/campaigns...) and the worker protocol (/v1/handshake,
// /v1/lease, /v1/submit, ...), routing worker traffic to the right
// campaign's coordinator by the identity prefix every wire message
// carries.
type Service struct {
	opts  Options
	store *Store

	mu        sync.Mutex
	campaigns map[[32]byte]*entry
	order     []*entry            // submission order, for listing
	queues    map[string][]*entry // per-tenant FIFO of queued campaigns
	ring      []string            // round-robin tenant order
	ringPos   int
	queued    int
	active    []*entry // running campaigns
	fleetPos  int      // round-robin position for fleet assignment
	draining  bool
	// wake is closed and replaced when a campaign becomes assignable or
	// the service drains; hellos and waits hold handshakes and ?wait=
	// status requests until their answers are out, which Shutdown awaits.
	wake          chan struct{}
	wg            sync.WaitGroup
	hellos, waits cluster.Holds

	telQueueDepth *telemetry.Gauge
	telActive     *telemetry.Gauge
	telSubmitted  *telemetry.Counter
	telHits       *telemetry.Counter
	telMisses     *telemetry.Counter
}

// New opens the result archive and returns a ready-to-serve Service.
func New(opts Options) (*Service, error) {
	opts = opts.withDefaults()
	if err := cluster.CheckLeaseTTL(opts.LeaseTTL); err != nil {
		return nil, err
	}
	s := &Service{
		opts:      opts,
		campaigns: make(map[[32]byte]*entry),
		queues:    make(map[string][]*entry),
		wake:      make(chan struct{}),
	}
	if opts.Dir != "" {
		st, err := OpenStore(opts.Dir, opts.MaxArchiveBytes)
		if err != nil {
			return nil, err
		}
		s.store = st
	}
	reg := opts.Telemetry
	s.telQueueDepth = reg.Gauge("service.queue_depth")
	s.telActive = reg.Gauge("service.active_campaigns")
	s.telSubmitted = reg.Counter("service.submissions")
	s.telHits = reg.Counter("service.archive_hits")
	s.telMisses = reg.Counter("service.archive_misses")
	s.hellos.Held = reg.Gauge("fleet.handshake_held")
	s.hellos.Took = reg.Histogram("fleet.handshake_hold")
	s.waits.Held = reg.Gauge("service.status_held")
	s.waits.Took = reg.Histogram("service.status_hold")
	return s, nil
}

// Archive exposes the result store (nil when persistence is disabled).
func (s *Service) Archive() *Store { return s.store }

// CampaignTelemetry returns the campaign's own telemetry registry (nil
// for unknown identities) — cluster.Join's telemetryFor hook for
// in-process fleet workers, so their engine counters land in the right
// campaign's registry.
func (s *Service) CampaignTelemetry(id [32]byte) *telemetry.Registry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.campaigns[id]; e != nil {
		return e.reg
	}
	return nil
}

// Handler returns the service's HTTP handler.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/campaigns", s.handleCampaigns)
	mux.HandleFunc("/v1/campaigns/", s.handleCampaign)
	mux.HandleFunc("/v1/handshake", s.handleHandshake)
	mux.HandleFunc("/v1/lease", s.routeWorker)
	mux.HandleFunc("/v1/submit", s.routeWorker)
	mux.HandleFunc("/v1/heartbeat", s.routeWorker)
	mux.HandleFunc("/v1/status", s.handleStatus)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// --- lifecycle endpoints -------------------------------------------------

// retryAfter attaches the client back-off hint of 429/503 responses:
// one second.
func retryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
}

// writeJSON answers with v as one JSON line, its length announced and
// flushed, so that a server closed right after — as at the end of a
// drain — closes a connection whose answer is complete.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, _ := json.Marshal(v)
	body = append(body, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body)
	http.NewResponseController(w).Flush()
}

// handleCampaigns serves POST /v1/campaigns (submit) and GET
// /v1/campaigns (list).
func (s *Service) handleCampaigns(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.submit(w, r)
	case http.MethodGet:
		s.list(w)
	default:
		w.Header().Set("Allow", "GET, POST")
		http.Error(w, "service: GET or POST required", http.StatusMethodNotAllowed)
	}
}

// submit admits one campaign: the body is an encoded cluster spec frame
// (cluster.EncodeSpec), the tenant comes from the ?tenant= query
// parameter. Identical re-submissions are idempotent; a submission whose
// identity is archived completes instantly without touching the fleet.
func (s *Service) submit(w http.ResponseWriter, r *http.Request) {
	body, ok := cluster.ReadBody(w, r)
	if !ok {
		return
	}
	spec, err := cluster.DecodeSpec(body)
	if err != nil {
		http.Error(w, "service: spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	if spec.Proto != cluster.ProtoVersion {
		http.Error(w, fmt.Sprintf("service: protocol %d not supported", spec.Proto), http.StatusBadRequest)
		return
	}
	tenant := r.URL.Query().Get("tenant")
	if tenant == "" {
		tenant = "default"
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		retryAfter(w)
		http.Error(w, "service: draining", http.StatusServiceUnavailable)
		return
	}
	s.telSubmitted.Inc()
	if e := s.campaigns[spec.Identity]; e != nil {
		// Idempotent: the campaign is already known, whatever its state.
		writeJSON(w, http.StatusOK, s.statusLocked(e, false))
		return
	}
	// Submissions minted before span tracing (or with a degraded zero ID)
	// get a trace ID here: the service is the campaign's entry point, so
	// this is where the fleet-wide correlation key is fixed. The ID never
	// feeds the identity hash (invariant 15), so stamping it cannot
	// change which archive entry the campaign maps to.
	if spec.TraceID.IsZero() {
		spec.TraceID = telemetry.NewTraceID()
	}
	e := &entry{
		id:     spec.Identity,
		idHex:  hex.EncodeToString(spec.Identity[:]),
		tenant: tenant,
		spec:   spec,
		state:  StateQueued,
		reg:    telemetry.New(),
		done:   make(chan struct{}),
	}
	if s.store != nil {
		if report, hit := s.store.Get(spec.Identity); hit {
			// Archive hit: the identity pins down the report bytes
			// (invariant 12), so the campaign is already done.
			e.state = StateDone
			e.cached = true
			e.doneClasses = int(spec.Classes)
			e.report = report
			close(e.done)
			s.campaigns[e.id] = e
			s.order = append(s.order, e)
			s.telHits.Inc()
			s.opts.Logf("service: campaign %s (%s) served from archive", e.spec.Name, e.idHex[:12])
			writeJSON(w, http.StatusOK, s.statusLocked(e, false))
			return
		}
		s.telMisses.Inc()
	}
	if s.queued >= s.opts.MaxQueued {
		retryAfter(w)
		http.Error(w, "service: campaign queue full", http.StatusTooManyRequests)
		return
	}
	e.ctx, e.cancel = context.WithCancel(context.Background())
	s.campaigns[e.id] = e
	s.order = append(s.order, e)
	if _, known := s.queues[tenant]; !known {
		s.ring = append(s.ring, tenant)
	}
	s.queues[tenant] = append(s.queues[tenant], e)
	s.queued++
	s.telQueueDepth.Set(int64(s.queued))
	s.opts.Logf("service: campaign %s (%s) submitted by tenant %s", e.spec.Name, e.idHex[:12], tenant)
	s.scheduleLocked()
	writeJSON(w, http.StatusAccepted, s.statusLocked(e, false))
}

func (s *Service) list(w http.ResponseWriter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]CampaignStatus, 0, len(s.order))
	for _, e := range s.order {
		out = append(out, s.statusLocked(e, false))
	}
	writeJSON(w, http.StatusOK, out)
}

// handleCampaign serves the per-campaign subpaths:
// GET /v1/campaigns/<id>[?wait=<dur>], GET /v1/campaigns/<id>/report,
// GET /v1/campaigns/<id>/trace and POST /v1/campaigns/<id>/cancel.
func (s *Service) handleCampaign(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/campaigns/")
	idHex, verb, _ := strings.Cut(rest, "/")
	raw, err := hex.DecodeString(idHex)
	var id [32]byte
	if err != nil || len(raw) != len(id) {
		http.Error(w, "service: malformed campaign id", http.StatusBadRequest)
		return
	}
	copy(id[:], raw)

	s.mu.Lock()
	e := s.campaigns[id]
	s.mu.Unlock()
	if e == nil {
		http.Error(w, "service: unknown campaign", http.StatusNotFound)
		return
	}
	switch verb {
	case "":
		if !cluster.RequireMethod(w, r, http.MethodGet) {
			return
		}
		// With ?wait= the status is held until the campaign reaches a
		// terminal state (or the hold runs out, or the client goes away):
		// what WaitCampaign asks instead of polling.
		hold, ok := cluster.ParseHold(w, r)
		if !ok {
			return
		}
		answered := s.waits.Park(r.Context(), time.Now().Add(hold), func() <-chan struct{} {
			select {
			case <-e.done:
				return nil
			default:
				return e.done
			}
		})
		defer answered()
		s.mu.Lock()
		st := s.statusLocked(e, true)
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, st)
	case "report":
		if !cluster.RequireMethod(w, r, http.MethodGet) {
			return
		}
		s.mu.Lock()
		state, report := e.state, e.report
		s.mu.Unlock()
		if state != StateDone {
			retryAfter(w)
			http.Error(w, "service: campaign not complete ("+state+")", http.StatusConflict)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(report)
	case "cancel":
		if !cluster.RequireMethod(w, r, http.MethodPost) {
			return
		}
		s.cancel(w, e)
	case "trace":
		if !cluster.RequireMethod(w, r, http.MethodGet) {
			return
		}
		s.mu.Lock()
		coord, spans := e.coord, e.spans
		s.mu.Unlock()
		if coord != nil {
			spans, _ = coord.Timeline()
		}
		if spans == nil {
			// Cached or never-started campaigns executed nothing, so there
			// is no timeline to serve.
			http.Error(w, "service: no trace for this campaign", http.StatusNotFound)
			return
		}
		// The coordinator records under the submission's trace ID.
		cluster.ServeTimeline(w, r, e.spec.TraceID, spans)
	default:
		http.Error(w, "service: unknown campaign endpoint", http.StatusNotFound)
	}
}

func (s *Service) cancel(w http.ResponseWriter, e *entry) {
	s.mu.Lock()
	switch e.state {
	case StateQueued:
		q := s.queues[e.tenant]
		for i, qe := range q {
			if qe == e {
				s.queues[e.tenant] = append(q[:i], q[i+1:]...)
				break
			}
		}
		s.queued--
		s.telQueueDepth.Set(int64(s.queued))
		s.finishLocked(e, StateCancelled, "cancelled before start")
	case StateRunning:
		// The coordinator answers the fleet with UnitShutdown and Wait
		// returns ErrInterrupted; runCampaign finishes the entry.
		e.cancel()
	}
	st := s.statusLocked(e, false)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// statusLocked renders a campaign's status; withTelemetry attaches the
// campaign's registry snapshot.
func (s *Service) statusLocked(e *entry, withTelemetry bool) CampaignStatus {
	st := CampaignStatus{
		ID:        e.idHex,
		Name:      e.spec.Name,
		Tenant:    e.tenant,
		State:     e.state,
		Cached:    e.cached,
		Total:     int(e.spec.Classes),
		Objective: e.spec.Objective,
		Error:     e.errMsg,
	}
	if !e.spec.TraceID.IsZero() {
		st.TraceID = e.spec.TraceID.String()
	}
	st.Done, st.Attacks = e.doneClasses, e.attacks
	if e.coord != nil {
		snap := e.coord.Snapshot()
		st.Done, st.Attacks = snap.Done, snap.Attacks
	}
	if withTelemetry {
		snap := e.reg.Snapshot()
		st.Telemetry = &snap
	}
	return st
}

// --- scheduling ----------------------------------------------------------

// scheduleLocked starts queued campaigns while capacity lasts, visiting
// tenants round-robin so no tenant's backlog holds up another's.
func (s *Service) scheduleLocked() {
	if s.draining {
		return
	}
	for len(s.active) < s.opts.MaxActive && s.queued > 0 {
		var e *entry
		for range s.ring {
			tenant := s.ring[s.ringPos%len(s.ring)]
			s.ringPos++
			if q := s.queues[tenant]; len(q) > 0 {
				e = q[0]
				s.queues[tenant] = q[1:]
				break
			}
		}
		if e == nil {
			return
		}
		s.queued--
		s.telQueueDepth.Set(int64(s.queued))
		e.state = StateRunning
		s.active = append(s.active, e)
		s.telActive.Set(int64(len(s.active)))
		s.wg.Add(1)
		go s.runCampaign(e)
	}
}

// runCampaign rebuilds the campaign from its spec (verifying the
// identity — a spec whose content does not hash to its announced
// identity fails here and can never poison the archive), runs it on the
// shared fleet through a dedicated coordinator, and archives the report.
func (s *Service) runCampaign(e *entry) {
	defer s.wg.Done()
	t, g, fs, cfg, err := cluster.BuildCampaign(e.spec)
	if err != nil {
		s.retire(e, StateFailed, err.Error(), nil)
		return
	}
	coord, err := cluster.NewCoordinator(t, g, fs, cfg, cluster.Options{
		UnitSize:        s.opts.UnitSize,
		LeaseTTL:        s.opts.LeaseTTL,
		MaxGoldenCycles: e.spec.MaxGoldenCycles,
		Context:         e.ctx,
		Telemetry:       e.reg,
		// The submission's trace ID flows through to the coordinator so
		// every fleet span of this campaign correlates with it.
		TraceID: e.spec.TraceID,
	}, nil)
	if err != nil {
		s.retire(e, StateFailed, err.Error(), nil)
		return
	}

	s.mu.Lock()
	e.coord = coord
	s.wakeLocked() // the campaign is assignable: release the parked fleet
	s.mu.Unlock()
	s.opts.Logf("service: campaign %s (%s) started", e.spec.Name, e.idHex[:12])

	res, err := coord.Wait()
	if err != nil {
		// Interrupted: cancel endpoint or service drain. Give the fleet
		// its grace period on the live coordinator; archive nothing.
		s.drainCoordinator(coord)
		s.retire(e, StateCancelled, "interrupted", nil)
		return
	}
	var buf bytes.Buffer
	if err := archive.Encode(&buf, res); err != nil {
		s.retire(e, StateFailed, err.Error(), nil)
		return
	}
	if s.store != nil {
		// A report that could not be archived would be served from memory
		// until the next restart and then be gone: that is a failed
		// campaign, not a done one.
		if err := s.store.Put(e.id, buf.Bytes()); err != nil {
			s.retire(e, StateFailed, err.Error(), nil)
			return
		}
	}
	s.retire(e, StateDone, "", buf.Bytes())
}

// retire ends a running campaign: it records the terminal state (and,
// for StateDone, the report), lets go of the coordinator, frees the
// campaign's slot and schedules the next queued one. Worker traffic
// that still arrives gets the answers routeWorker synthesizes for a
// campaign without a coordinator.
func (s *Service) retire(e *entry, state, detail string, report []byte) {
	e.cancel()
	s.mu.Lock()
	defer s.mu.Unlock()
	e.report = report
	if c := e.coord; c != nil {
		snap := c.Snapshot()
		e.doneClasses, e.attacks = snap.Done, snap.Attacks
		e.spans, _ = c.Timeline()
		e.coord = nil
	}
	s.finishLocked(e, state, detail)
	for i, a := range s.active {
		if a == e {
			s.active = append(s.active[:i], s.active[i+1:]...)
			break
		}
	}
	s.telActive.Set(int64(len(s.active)))
	s.scheduleLocked()
}

// finishLocked moves a campaign to a terminal state.
func (s *Service) finishLocked(e *entry, state, detail string) {
	e.state = state
	if state == StateFailed {
		e.errMsg = detail
	}
	close(e.done)
	s.opts.Logf("service: campaign %s (%s) %s %s", e.spec.Name, e.idHex[:12], state, detail)
}

// drainCoordinator gives the fleet a bounded grace period to see the
// shutdown answer and say hello again before the coordinator is sealed.
func (s *Service) drainCoordinator(c *cluster.Coordinator) {
	c.WaitDrained(2 * s.opts.LeaseTTL)
	c.Seal()
}

// wakeLocked releases every parked handshake to look again.
func (s *Service) wakeLocked() {
	close(s.wake)
	s.wake = make(chan struct{})
}

// --- worker protocol -----------------------------------------------------

// handleHandshake answers a worker's hello. The hello is first the
// worker's exit notice from the campaign it worked on before: every
// coordinator still hosted hears it, so that a cancelled campaign's
// drain ends with its last worker instead of a lease timeout. Then the
// worker is granted a running campaign (chosen round-robin) and has
// joined it, or told to shut down when the service drains, or to wait.
// With ?wait= a would-be "wait" is parked until a campaign becomes
// assignable, the service starts draining, the worker goes away or the
// hold runs out (then "wait", as without a hold).
func (s *Service) handleHandshake(w http.ResponseWriter, r *http.Request) {
	body, ok := cluster.ReadBody(w, r)
	if !ok {
		return
	}
	hello, err := cluster.DecodeHello(body)
	if err != nil {
		http.Error(w, "service: handshake: "+err.Error(), http.StatusBadRequest)
		return
	}
	hold, ok := cluster.ParseHold(w, r)
	if !ok {
		return
	}
	deadline := time.Now().Add(hold)

	s.mu.Lock()
	for _, e := range s.active {
		if e.coord != nil {
			e.coord.Leave(hello.WorkerID)
		}
	}
	s.mu.Unlock()
	var spec []byte
	var draining bool
	answered := s.hellos.Park(r.Context(), deadline, func() <-chan struct{} {
		s.mu.Lock()
		defer s.mu.Unlock()
		if spec, draining = s.grantLocked(hello.WorkerID); spec != nil || draining {
			return nil
		}
		return s.wake
	})
	defer answered()

	resp := cluster.HelloReply{Status: cluster.HelloWait}
	switch {
	case draining:
		resp.Status = cluster.HelloShutdown
	case spec != nil:
		resp.Status = cluster.HelloGranted
		resp.Spec = spec
	}
	cluster.WriteWhole(w, cluster.EncodeHelloReply(resp))
}

// grantLocked joins a handshaking worker to a running campaign, chosen
// round-robin to spread the fleet across concurrent campaigns. A
// campaign whose last outcome is merged, or which was cancelled, grants
// nothing (Coordinator.Hello), so a worker told done or shutdown parks
// here instead of being handed that campaign again until it is retired.
func (s *Service) grantLocked(workerID string) (spec []byte, draining bool) {
	if s.draining {
		return nil, true
	}
	for range s.active {
		e := s.active[s.fleetPos%len(s.active)]
		s.fleetPos++
		if e.coord != nil {
			if spec := e.coord.Hello(workerID); spec != nil {
				return spec, false
			}
		}
	}
	return nil, false
}

// routeWorker dispatches a worker-protocol request to the right
// campaign's coordinator. Every post-handshake message carries the
// campaign identity as its payload prefix, so the service peeks it
// without fully decoding and replays the request against the owning
// coordinator. Campaigns without one (archive hits, early failures,
// retired campaigns) synthesize the protocol answers workers expect.
func (s *Service) routeWorker(w http.ResponseWriter, r *http.Request) {
	body, ok := cluster.ReadBody(w, r)
	if !ok {
		return
	}
	id, ok := peekIdentity(body)
	if !ok {
		http.Error(w, "service: malformed worker message", http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	e := s.campaigns[id]
	var coord *cluster.Coordinator
	var state string
	if e != nil {
		coord, state = e.coord, e.state
	}
	s.mu.Unlock()
	if e == nil {
		http.Error(w, "service: campaign identity mismatch (unknown campaign)", http.StatusConflict)
		return
	}
	if coord != nil {
		r.Body = io.NopCloser(bytes.NewReader(body))
		coord.Handler().ServeHTTP(w, r)
		return
	}
	// No coordinator: answer as a campaign state in the entry's phase
	// answers an ask it grants nothing (lease.Phase.Answer).
	if strings.HasSuffix(r.URL.Path, "/lease") {
		phase := lease.Stopped
		switch state {
		case StateQueued:
			phase = lease.Queued
		case StateDone:
			phase = lease.Finished
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(cluster.EncodeWorkUnit(cluster.WorkUnit{Status: uint8(phase.Answer())}))
		return
	}
	w.WriteHeader(http.StatusOK)
}

// errMessage marks a worker message whose payload does not parse.
var errMessage = errors.New("service: malformed worker message")

// peekIdentity extracts the identity prefix every post-handshake worker
// message payload starts with.
func peekIdentity(body []byte) ([32]byte, bool) {
	_, payload, _, err := frame.Read(body, 0)
	r := frame.NewReader(payload, errMessage)
	id := r.Identity()
	return id, err == nil && r.Err() == nil
}

// --- observability -------------------------------------------------------

// handleMetrics serves the Prometheus text exposition: the service
// registry plus one labelled set per campaign (campaign id prefix and
// tenant), so per-campaign scan/cluster counters stay distinguishable
// after scraping.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !cluster.RequireMethod(w, r, http.MethodGet) {
		return
	}
	var sets []telemetry.MetricSet
	if s.opts.Telemetry != nil {
		sets = append(sets, telemetry.MetricSet{Snap: s.opts.Telemetry.Snapshot()})
	}
	s.mu.Lock()
	for _, e := range s.order {
		sets = append(sets, telemetry.MetricSet{
			Labels: map[string]string{"campaign": e.idHex[:12], "tenant": e.tenant},
			Snap:   e.reg.Snapshot(),
		})
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	telemetry.WritePrometheusSets(w, sets)
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	if !cluster.RequireMethod(w, r, http.MethodGet) {
		return
	}
	s.mu.Lock()
	resp := struct {
		Campaigns []CampaignStatus `json:"campaigns"`
		Queued    int              `json:"queued"`
		Active    int              `json:"active"`
		Draining  bool             `json:"draining,omitempty"`
		Archive   *struct {
			Entries int    `json:"entries"`
			Bytes   int64  `json:"bytes"`
			Evicted uint64 `json:"evicted"`
		} `json:"archive,omitempty"`
		Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
	}{
		Queued:   s.queued,
		Active:   len(s.active),
		Draining: s.draining,
	}
	for _, e := range s.order {
		// Per-campaign snapshots keep every campaign's scan/cluster
		// counters isolated — /v1/status never mixes campaigns into one
		// process-global number.
		resp.Campaigns = append(resp.Campaigns, s.statusLocked(e, true))
	}
	s.mu.Unlock()
	sort.Slice(resp.Campaigns, func(i, j int) bool { return resp.Campaigns[i].ID < resp.Campaigns[j].ID })
	if s.store != nil {
		resp.Archive = &struct {
			Entries int    `json:"entries"`
			Bytes   int64  `json:"bytes"`
			Evicted uint64 `json:"evicted"`
		}{Entries: s.store.Len(), Bytes: s.store.Size(), Evicted: s.store.Evicted()}
	}
	if s.opts.Telemetry != nil {
		snap := s.opts.Telemetry.Snapshot()
		resp.Telemetry = &snap
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- shutdown ------------------------------------------------------------

// Shutdown drains the service: new submissions are rejected with 503,
// queued campaigns are cancelled, running ones interrupted — their
// coordinators answer the fleet with shutdown and get a bounded grace
// period to drain their leases — and the archive is flushed. It blocks
// until every campaign goroutine has finished and every held hello and
// status has its answer out.
func (s *Service) Shutdown() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.draining = true
	s.wakeLocked() // parked handshakes answer FleetShutdown at once
	for _, tenant := range s.ring {
		for _, e := range s.queues[tenant] {
			s.queued--
			s.finishLocked(e, StateCancelled, "service shutdown")
		}
		s.queues[tenant] = nil
	}
	s.telQueueDepth.Set(int64(s.queued))
	running := append([]*entry(nil), s.active...)
	s.mu.Unlock()

	for _, e := range running {
		e.cancel()
	}
	s.wg.Wait()
	// Whoever called closes the server next: every worker saying hello
	// right now — the parked ones were all just released — has its
	// dismissal on the wire first, or it would knock at a closed port
	// until its retries run out; every client holding its campaign's
	// status has the campaign's end, not a cut connection.
	<-s.hellos.Idle()
	<-s.waits.Idle()
	if s.store != nil {
		s.store.Sync()
	}
	s.opts.Logf("service: shut down")
}
