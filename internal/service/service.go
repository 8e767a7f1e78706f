package service

import (
	"bytes"
	"cmp"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"faultspace/internal/archive"
	"faultspace/internal/campaign"
	"faultspace/internal/cluster"
	"faultspace/internal/cluster/lease"
	"faultspace/internal/pruning"
	"faultspace/internal/telemetry"
	"faultspace/internal/trace"
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
	// UnitSize and LeaseTTL parameterize each campaign's host (defaults
	// cluster.DefaultUnitSize / cluster.DefaultLeaseTTL); every worker is
	// handed the LeaseTTL in its campaign's spec.
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

	// reg is the campaign's own telemetry registry: its host's cluster.*
	// counters and — for in-process fleet workers — its engine's scan.*,
	// fork.* and predecode counters land here, isolated from every other
	// campaign in the process. A hosted campaign's is its caller's
	// cfg.Telemetry (nil: none).
	reg *telemetry.Registry
	// host is set while the campaign runs and while its fleet drains,
	// and grants the campaign to handshaking workers while it has work to
	// hand out. retire drops it — with its golden trace, fault space,
	// outcome arrays and unit table — and keeps what the endpoints go on
	// serving: progress, its last snapshot (every class done, for an
	// archive hit), and spans, the timeline's recorder (nil when the
	// campaign never ran).
	host     *host
	progress cluster.Progress
	spans    *telemetry.SpanRecorder
	// ctx is the running campaign's one context; cancel interrupts the
	// campaign (cancel endpoint or service drain) and lets go of a
	// retired one.
	ctx    context.Context
	cancel context.CancelFunc
	report []byte        // archive.Encode bytes, set when done
	done   chan struct{} // closed on done/cancelled/failed
}

// newEntry returns a queued campaign's entry.
func newEntry(spec cluster.Spec, tenant string, reg *telemetry.Registry) *entry {
	return &entry{
		id:     spec.Identity,
		idHex:  hex.EncodeToString(spec.Identity[:]),
		tenant: tenant,
		spec:   spec,
		state:  StateQueued,
		reg:    reg,
		done:   make(chan struct{}),
	}
}

// CampaignStatus is the JSON status of one campaign, served by the
// lifecycle endpoints and embedded in /v1/status.
type CampaignStatus struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Space  string `json:"space"`
	Tenant string `json:"tenant"`
	State  string `json:"state"`
	// Cached reports that the campaign completed without executing a
	// single experiment: its report came from the result archive.
	Cached bool `json:"cached,omitempty"`
	// Done counts the classes with an outcome, Total those of the
	// campaign's fault space. The service counts them itself: from the
	// archived report on a hit, from its own build once a miss starts. A
	// queued miss reports Total 0 — or the count its spec announced — until
	// then.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Failures counts classes with a non-benign outcome so far.
	Failures uint64 `json:"failures,omitempty"`
	// Objective is the campaign's attacker-objective name ("" = none);
	// Attacks counts classes whose outcome satisfied it so far.
	Objective string `json:"objective,omitempty"`
	Attacks   uint64 `json:"attacks,omitempty"`
	Error     string `json:"error,omitempty"`
	// The fleet as the campaign's host sees it: experiments per second this
	// session, the units leased out, the leases that expired and moved,
	// and each worker's session statistics, its windowed rate included.
	Rate          float64              `json:"expPerSec,omitempty"`
	Leases        int                  `json:"outstandingLeases,omitempty"`
	Reassignments int                  `json:"reassignments,omitempty"`
	Workers       []cluster.WorkerStat `json:"workers,omitempty"`
	// TraceID is the campaign's 128-bit trace ID (hex) when span tracing
	// is on — the correlation key for /v1/campaigns/<id>/trace. Spans is
	// how many spans and marks that timeline holds, SpansDropped how many
	// its full recorder discarded and SpansCapacity its size.
	TraceID       string `json:"traceId,omitempty"`
	Spans         int    `json:"spans,omitempty"`
	SpansDropped  uint64 `json:"spansDropped,omitempty"`
	SpansCapacity int    `json:"spansCapacity,omitempty"`
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
// /v1/lease, /v1/submit, /v1/heartbeat), which it decodes once and
// routes to the right campaign's host by the identity every
// post-handshake message carries.
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
	mux.HandleFunc("/v1/lease", s.handleLease)
	mux.HandleFunc("/v1/submit", s.handleSubmit)
	mux.HandleFunc("/v1/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("/v1/status", s.handleStatus)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// --- HTTP plumbing -------------------------------------------------------

// requireMethod enforces the single allowed method of an endpoint,
// answering anything else with 405 and an Allow header per RFC 9110.
func requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		http.Error(w, "service: "+method+" required", http.StatusMethodNotAllowed)
		return false
	}
	return true
}

// decode reads the bounded body of a POST request — the one request
// reader of every endpoint that takes a wire message — and decodes it.
// Any other method, a failed read, a body above the bound or one that
// does not decode is answered here and reported false.
func decode[M any](w http.ResponseWriter, r *http.Request, dec func([]byte) (M, error)) (M, bool) {
	var m M
	if !requireMethod(w, r, http.MethodPost) {
		return m, false
	}
	body, err := cluster.ReadBounded(r.Body)
	if err == nil {
		m, err = dec(body)
	}
	if err != nil {
		http.Error(w, "service: "+err.Error(), http.StatusBadRequest)
		return m, false
	}
	return m, true
}

// parseHold reads the ?wait= parameter of a request (held requests,
// cluster.Holds): 0 when absent, capped at cluster.MaxHold. A malformed
// or negative value is answered 400.
func parseHold(w http.ResponseWriter, r *http.Request) (time.Duration, bool) {
	v := r.URL.Query().Get("wait")
	if v == "" {
		return 0, true
	}
	d, err := time.ParseDuration(v)
	if err != nil || d < 0 {
		http.Error(w, "service: malformed wait parameter", http.StatusBadRequest)
		return 0, false
	}
	return min(d, cluster.MaxHold), true
}

// writeWhole answers a worker with one wire message, its length
// announced and the bytes flushed to the connection before it returns: a
// server closed right after — which is what follows a worker's dismissal
// — closes a connection whose answer is complete. Every message answer
// goes out through it, a phase answer included; a submission or a
// heartbeat is answered a bare 200, which carries no message and which
// no drain waits for.
func writeWhole(w http.ResponseWriter, frame []byte) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	w.Write(frame)
	http.NewResponseController(w).Flush()
}

// writeJSON answers with v as one JSON line, its length announced and
// flushed, for the same reason as writeWhole.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, _ := json.Marshal(v)
	body = append(body, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body)
	http.NewResponseController(w).Flush()
}

// retryAfter attaches the client back-off hint of 429/503 responses:
// one second.
func retryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
}

// --- lifecycle endpoints -------------------------------------------------

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
// parameter. Re-submitting a queued, running or done campaign is
// idempotent; a cancelled or failed one is submitted afresh. A
// submission whose identity is archived completes instantly without
// touching the fleet.
func (s *Service) submit(w http.ResponseWriter, r *http.Request) {
	spec, ok := decode(w, r, cluster.DecodeSpec)
	if !ok {
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
	old := s.campaigns[spec.Identity]
	if old != nil && old.state != StateCancelled && old.state != StateFailed {
		writeJSON(w, http.StatusOK, s.statusLocked(old, false))
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
	e := newEntry(spec, tenant, telemetry.New())
	if s.store != nil {
		// A report whose classes do not count is no report to serve: the
		// campaign runs again, as on a miss.
		report, hit := s.store.Get(spec.Identity)
		n, err := archive.ClassCount(report)
		if hit && err == nil {
			// Archive hit: the identity pins down the report bytes
			// (invariant 12), so the campaign is already done. Its class
			// count is the report's, whatever the submission announced.
			e.state = StateDone
			e.cached = true
			e.spec.Classes, e.progress.Done = uint64(n), n
			e.report = report
			close(e.done)
			s.addLocked(e, old)
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
	s.addLocked(e, old)
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

// addLocked lists a new campaign, in the place of old — the cancelled or
// failed entry of the same identity it replaces — if there is one.
func (s *Service) addLocked(e, old *entry) {
	s.campaigns[e.id] = e
	if i := slices.Index(s.order, old); i >= 0 {
		s.order[i] = e
	} else {
		s.order = append(s.order, e)
	}
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
		if !requireMethod(w, r, http.MethodGet) {
			return
		}
		// With ?wait= the status is held until the campaign reaches a
		// terminal state (or the hold runs out, or the client goes away):
		// what WaitCampaign asks instead of polling.
		hold, ok := parseHold(w, r)
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
		if !requireMethod(w, r, http.MethodGet) {
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
		// The length is known, so the report is sent in one piece, not
		// chunked.
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(report)))
		w.Write(report)
	case "cancel":
		if !requireMethod(w, r, http.MethodPost) {
			return
		}
		s.cancel(w, e)
	case "trace":
		if !requireMethod(w, r, http.MethodGet) {
			return
		}
		s.mu.Lock()
		rec := e.spans
		s.mu.Unlock()
		if rec == nil {
			// Cached or never-started campaigns executed nothing, so there
			// is no timeline to serve.
			http.Error(w, "service: no trace for this campaign", http.StatusNotFound)
			return
		}
		// A timeline as Chrome trace-event JSON (loadable in Perfetto /
		// chrome://tracing), or one JSON object per span with
		// ?format=jsonl.
		if r.URL.Query().Get("format") == "jsonl" {
			w.Header().Set("Content-Type", "application/jsonl")
			telemetry.WriteSpansJSONL(w, rec.TraceID(), rec.Spans())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		telemetry.WriteChromeTrace(w, rec.TraceID(), rec.Spans())
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
		// The host answers the fleet with UnitShutdown and its wait
		// returns ErrInterrupted; finish retires the entry.
		e.cancel()
	}
	st := s.statusLocked(e, false)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// progressLocked returns the campaign's progress: live from its host
// while it has one, else what retire kept.
func (s *Service) progressLocked(e *entry) cluster.Progress {
	if e.host != nil {
		return e.host.snapshot()
	}
	return e.progress
}

// statusLocked renders a campaign's status; withTelemetry attaches the
// campaign's registry snapshot.
func (s *Service) statusLocked(e *entry, withTelemetry bool) CampaignStatus {
	p := s.progressLocked(e)
	st := CampaignStatus{
		ID:            e.idHex,
		Name:          e.spec.Name,
		Space:         pruning.SpaceKind(e.spec.SpaceKind).String(),
		Tenant:        e.tenant,
		State:         e.state,
		Cached:        e.cached,
		Done:          p.Done,
		Total:         int(e.spec.Classes),
		Failures:      p.Failures(),
		Objective:     e.spec.Objective,
		Attacks:       p.Attacks,
		Error:         e.errMsg,
		Rate:          p.Rate,
		Leases:        p.OutstandingLeases,
		Reassignments: p.Reassignments,
		Workers:       p.Workers,
	}
	if rec := e.spans; rec != nil {
		st.TraceID = rec.TraceID().String()
		st.Spans, st.SpansDropped, st.SpansCapacity = rec.Len(), rec.Dropped(), rec.Cap()
	} else if !e.spec.TraceID.IsZero() {
		st.TraceID = e.spec.TraceID.String()
	}
	if withTelemetry && e.reg != nil {
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
		s.startLocked(e)
		go s.runCampaign(e)
	}
}

// startLocked moves a campaign into an active slot; its runner (launch)
// calls s.wg.Done once it is retired, or whoever fails to launch it.
func (s *Service) startLocked(e *entry) {
	e.state = StateRunning
	s.active = append(s.active, e)
	s.telActive.Set(int64(len(s.active)))
	s.wg.Add(1)
}

// runCampaign rebuilds a submitted campaign from its spec (verifying the
// identity — a spec whose content does not hash to its announced
// identity fails here and can never poison the archive) and launches it.
func (s *Service) runCampaign(e *entry) {
	t, g, fs, _, err := cluster.BuildCampaign(e.spec)
	if err == nil {
		_, err = s.launch(e, t, g, fs, campaign.Config{}, nil, nil)
	}
	if err != nil {
		s.retire(e, nil, StateFailed, err.Error(), nil)
		s.wg.Done()
	}
}

// Host runs a campaign its caller built — ServeScan's — on the service,
// as a submitted one runs once BuildCampaign has rebuilt it. Of cfg it
// reads Context, whose end interrupts the campaign (nil is never
// cancelled; the cancel endpoint and Shutdown interrupt it too),
// Telemetry, the campaign's registry, OnResult, which hears every merged
// outcome under the host's lock, and ProgressInterval, which throttles
// onProgress. The campaign takes an active slot at once, whatever the
// queue and MaxActive say; it must be one the service does not know yet.
// wait returns its result once it is complete or interrupted; the drain
// and the seal follow in the background, and Shutdown waits for them.
func (s *Service) Host(t campaign.Target, g *trace.Golden, fs *pruning.FaultSpace, cfg campaign.Config, maxGoldenCycles uint64,
	prior map[int]campaign.Outcome, onProgress func(cluster.Progress)) (wait func() (*campaign.Result, error), err error) {
	if maxGoldenCycles == 0 {
		return nil, errors.New("service: maxGoldenCycles must be set")
	}
	spec, err := cluster.NewSpec(t, fs.Kind, cfg, maxGoldenCycles, 0)
	if err != nil {
		return nil, err
	}
	e := newEntry(spec, "default", cfg.Telemetry)
	e.ctx, e.cancel = context.WithCancel(cmp.Or(cfg.Context, context.Background()))
	s.mu.Lock()
	s.addLocked(e, nil)
	s.startLocked(e)
	s.mu.Unlock()
	if wait, err = s.launch(e, t, g, fs, cfg, prior, onProgress); err != nil {
		s.retire(e, nil, StateFailed, err.Error(), nil)
		s.wg.Done()
	}
	return wait, err
}

// finish archives the report of a campaign that ended complete and
// retires it.
func (s *Service) finish(e *entry, h *host, res *campaign.Result, err error) {
	if err != nil {
		// Interrupted: the cancel endpoint, the service drain or the host's
		// context. Archive nothing.
		s.retire(e, h, StateCancelled, "interrupted", nil)
		return
	}
	var buf bytes.Buffer
	if err := archive.Encode(&buf, res); err != nil {
		s.retire(e, h, StateFailed, err.Error(), nil)
		return
	}
	if s.store != nil {
		// A report that could not be archived would be served from memory
		// until the next restart and then be gone: that is a failed
		// campaign, not a done one.
		if err := s.store.Put(e.id, buf.Bytes()); err != nil {
			s.retire(e, h, StateFailed, err.Error(), nil)
			return
		}
	}
	s.retire(e, h, StateDone, "", buf.Bytes())
}

// retire ends a running campaign, on every path. It publishes the
// terminal state first — with the report, for StateDone — so a client
// waiting on the status is not held by what follows: the drain, the
// grace period in which every worker that joined fetches its done or
// shutdown answer from the live host and says hello once more, its exit
// notice, bounded by 2×LeaseTTL; then the seal, after which no late
// submission reaches OnResult. Only then does it let go of the host and
// free the campaign's slot: worker traffic that still arrives gets the
// phase answers of a campaign without a host (route).
//
// The one bound is twice the lease TTL because the TTL is what the fleet
// already promises: a live worker is never silent for longer — a unit in
// progress heartbeats every TTL/3 — so twice it lets a unit in flight
// finish and submit, and its worker say hello, before the campaign gives
// up on a worker that died.
func (s *Service) retire(e *entry, h *host, state, detail string, report []byte) {
	e.cancel()
	s.mu.Lock()
	e.report = report
	s.finishLocked(e, state, detail)
	s.mu.Unlock()
	if h != nil {
		h.drain(2 * s.opts.LeaseTTL)
		h.step(lease.Event{Kind: lease.Seal})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if h != nil {
		e.progress = h.snapshot()
		e.host = nil
	}
	if i := slices.Index(s.active, e); i >= 0 {
		s.active = slices.Delete(s.active, i, i+1)
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

// wakeLocked releases every parked handshake to look again.
func (s *Service) wakeLocked() {
	close(s.wake)
	s.wake = make(chan struct{})
}

// --- worker protocol -----------------------------------------------------

// handleHandshake answers a worker's hello. The hello is first the
// worker's exit notice from the campaign it worked on before: every
// campaign still hosted hears it (lease.Leave), so that a campaign's
// drain ends with its last worker instead of a lease timeout. Then the
// worker is granted a running campaign (chosen round-robin) and has
// joined it, or told to shut down when the service drains, or to wait.
// With ?wait= a would-be "wait" is parked until a campaign becomes
// assignable, the service starts draining, the worker goes away or the
// hold runs out (then "wait", as without a hold).
//
// The leave is a step of the first look, which the hello's hold already
// counts: the leave may end the last drain, and Shutdown's wait for idle
// hellos must then still see this one, or the server closes before its
// answer is out. A later look's leave is a no-op, the worker being
// joined nowhere.
func (s *Service) handleHandshake(w http.ResponseWriter, r *http.Request) {
	hello, ok := decode(w, r, cluster.DecodeHello)
	if !ok {
		return
	}
	hold, ok := parseHold(w, r)
	if !ok {
		return
	}
	var spec []byte
	var draining bool
	answered := s.hellos.Park(r.Context(), time.Now().Add(hold), func() <-chan struct{} {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, e := range s.active {
			if e.host != nil {
				e.host.step(lease.Event{Kind: lease.Leave, Worker: hello.WorkerID})
			}
		}
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
	writeWhole(w, cluster.EncodeHelloReply(resp))
}

// grantLocked joins a handshaking worker to a running campaign, chosen
// round-robin to spread the fleet across concurrent campaigns, and
// returns the campaign's handshake frame: its spec, stamped at launch. A
// campaign whose last outcome is merged, or which was cancelled, grants
// nothing (its host's lease.Hello step answers Shutdown), so a worker
// told done or shutdown parks here instead of being handed that campaign
// again until it is retired.
func (s *Service) grantLocked(workerID string) (spec []byte, draining bool) {
	if s.draining {
		return nil, true
	}
	for range s.active {
		e := s.active[s.fleetPos%len(s.active)]
		s.fleetPos++
		if h := e.host; h != nil && h.step(lease.Event{Kind: lease.Hello, Worker: workerID}).Reply.Status == lease.Granted {
			return h.spec, false
		}
	}
	return nil, false
}

// route finds the campaign a decoded worker message names by its
// identity — the protocol's admission check, so an identity the service
// does not know is answered 409 here. It returns the campaign's host
// while it has one, for the handler to step without the service's lock,
// else the phase its state answers in (lease.Phase.Answer): queued,
// archived, failed and retired campaigns answer a lease ask as a state
// in that phase answers one it grants nothing, and take a submission or
// heartbeat without a word.
func (s *Service) route(w http.ResponseWriter, id [32]byte) (*host, lease.Phase, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.campaigns[id]
	if e == nil {
		http.Error(w, "service: campaign identity mismatch (unknown campaign)", http.StatusConflict)
		return nil, 0, false
	}
	phase := lease.Stopped
	switch e.state {
	case StateQueued:
		phase = lease.Queued
	case StateDone:
		phase = lease.Finished
	}
	return e.host, phase, true
}

// handleLease grants the asking worker a unit of its campaign
// (lease.Ask). With ?wait= an answer that would be UnitWait is held until
// a step wakes it — a unit pending again, the campaign over — the hold
// runs out or the worker goes away; each look is an ask of its own. The
// ask counts as unanswered, for the drain, until the unit is written out.
func (s *Service) handleLease(w http.ResponseWriter, r *http.Request) {
	q, ok := decode(w, r, cluster.DecodeLeaseRequest)
	if !ok {
		return
	}
	h, phase, ok := s.route(w, q.Identity)
	if !ok {
		return
	}
	hold, ok := parseHold(w, r)
	if !ok {
		return
	}
	reply := lease.Reply{Status: phase.Answer()}
	if h != nil {
		answered := h.asks.Park(r.Context(), time.Now().Add(hold), func() <-chan struct{} {
			h.mu.Lock()
			defer h.mu.Unlock()
			if reply = h.stepLocked(lease.Event{Kind: lease.Ask, Worker: q.WorkerID}).Reply; reply.Status != lease.Wait {
				return nil
			}
			return h.wake
		})
		defer answered()
	}
	writeWhole(w, cluster.EncodeWorkUnit(cluster.WorkUnit{Status: uint8(reply.Status), ID: reply.Unit, Token: reply.Token, Classes: reply.Classes}))
}

// handleSubmit merges a worker's results and adds the spans it shipped to
// the campaign's timeline: 400 when they do not fit the unit, 503 once
// the campaign is sealed, else a bare 200.
func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	sub, ok := decode(w, r, cluster.DecodeSubmission)
	if !ok {
		return
	}
	h, _, ok := s.route(w, sub.Identity)
	if !ok {
		return
	}
	var err error
	if h != nil {
		err = h.step(lease.Event{Kind: lease.Submit, Worker: sub.WorkerID, Unit: sub.UnitID, Entries: sub.Entries}).Reply.Err
	}
	switch {
	case errors.Is(err, lease.ErrSealed):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
	default:
		if h != nil {
			// The scope is the submitting worker's ID, never the wire's: a
			// worker cannot attribute spans to another.
			for _, sp := range sub.Spans {
				sp.Scope = sub.WorkerID
				h.spans.Add(sp)
			}
		}
		w.WriteHeader(http.StatusOK)
	}
}

// handleHeartbeat extends the worker's leases on the units it lists
// (lease.Heartbeat).
func (s *Service) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	hb, ok := decode(w, r, cluster.DecodeHeartbeat)
	if !ok {
		return
	}
	h, _, ok := s.route(w, hb.Identity)
	if !ok {
		return
	}
	if h != nil {
		h.step(lease.Event{Kind: lease.Heartbeat, Worker: hb.WorkerID, Units: hb.Units})
	}
	w.WriteHeader(http.StatusOK)
}

// --- observability -------------------------------------------------------

// handleMetrics serves the Prometheus text exposition: the service
// registry, one labelled set per campaign (campaign id prefix and
// tenant), so per-campaign scan/cluster counters stay distinguishable
// after scraping, and one per worker of a campaign (worker ID on top)
// with the statistics its status reports.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	var sets []telemetry.MetricSet
	if s.opts.Telemetry != nil {
		sets = append(sets, telemetry.MetricSet{Snap: s.opts.Telemetry.Snapshot()})
	}
	s.mu.Lock()
	for _, e := range s.order {
		labels := map[string]string{"campaign": e.idHex[:12], "tenant": e.tenant}
		sets = append(sets, telemetry.MetricSet{Labels: labels, Snap: e.reg.Snapshot()})
		for _, ws := range s.progressLocked(e).Workers {
			worker := maps.Clone(labels)
			worker["worker"] = ws.ID
			sets = append(sets, telemetry.MetricSet{Labels: worker, Snap: telemetry.Snapshot{
				Counters: map[string]uint64{
					"cluster.worker.experiments": uint64(ws.Experiments),
					"cluster.worker.merged":      uint64(ws.Merged),
				},
				Gauges: map[string]int64{"cluster.worker.outstanding": int64(ws.Outstanding)},
			}})
		}
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	telemetry.WritePrometheusSets(w, sets)
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
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
		}{Entries: s.store.Len(), Bytes: s.store.Size(), Evicted: s.store.evicted()}
	}
	if s.opts.Telemetry != nil {
		snap := s.opts.Telemetry.Snapshot()
		resp.Telemetry = &snap
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- shutdown ------------------------------------------------------------

// Shutdown drains the service: new submissions are rejected with 503,
// queued campaigns are cancelled, running ones interrupted and retired —
// their fleets drained on the live hosts (retire) — and the
// archive is flushed. It blocks until every campaign is retired and every
// held hello and status has its answer out.
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
