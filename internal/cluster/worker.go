package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"faultspace/internal/campaign"
	"faultspace/internal/checkpoint"
	"faultspace/internal/pruning"
	"faultspace/internal/telemetry"
)

// Worker sentinel errors.
var (
	// ErrShutdown is returned by Join when the last campaign it worked on
	// was stopped — interrupted or cancelled — before it completed.
	ErrShutdown = errors.New("cluster: coordinator shut down")
	// ErrRejected is returned when the coordinator rejected the worker —
	// identity mismatch or a protocol violation. Not retryable.
	ErrRejected = errors.New("cluster: rejected by coordinator")
	// ErrUnreachable is returned when the coordinator stayed unreachable
	// through the bounded retry budget.
	ErrUnreachable = errors.New("cluster: coordinator unreachable")
)

// WorkerOptions parameterizes Join. It is the one declaration of a
// worker's options — the root package's JoinOptions is an alias of it.
type WorkerOptions struct {
	// WorkerID names the worker in leases and statistics (default
	// "w<pid>").
	WorkerID string
	// Workers is the number of parallel experiment executors per unit
	// (default GOMAXPROCS, via campaign.Config).
	Workers int
	// Strategy selects the experiment execution strategy (default
	// fork). Deliberately free to differ from other workers — the
	// executor-equivalence invariant guarantees identical outcomes.
	Strategy campaign.Strategy
	// Predecode enables the simulator's pre-decoded dispatch stream on
	// this worker's machines. Outcome-invariant and local to this worker.
	Predecode bool
	// BaseBackoff is the initial retry backoff, doubled per attempt up to
	// MaxBackoff (defaults 50ms / 2s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Context, when cancelled, makes the worker stop abruptly — mid-unit,
	// mid-request (one parked at the server included), without submitting
	// or deregistering, exactly like a crash. The lease-expiry path of the
	// coordinator must absorb it. nil is never cancelled.
	Context context.Context
	// Telemetry, when non-nil, instruments the worker's campaign engine
	// (scan counters, outcome histograms) across all the units it runs.
	// Session-scoped and local to this worker.
	Telemetry *telemetry.Registry
	// Client is the HTTP client (default http.DefaultClient).
	Client *http.Client
	// Logf, when non-nil, receives worker life-cycle log lines.
	Logf func(format string, args ...any)
}

// Consecutive failed attempts (transport errors and 5xx answers, backed
// off from BaseBackoff to MaxBackoff) before a request gives up with
// ErrUnreachable.
const (
	// requestRetries is the budget of a lease or a submission, about 1.5 s
	// at the default backoff: the unit's lease expires and moves to another
	// worker anyway, so a dead coordinator is worth finding out fast.
	requestRetries = 6
	// handshakeRetries is the budget of a hello, about 40 s: a worker
	// between campaigns holds nothing, and a server that goes away there
	// never gets to dismiss it, so connection errors are the only signal
	// left — long enough to ride out a service restart, short enough not
	// to ask a dead address forever.
	handshakeRetries = 25
)

// withDefaults returns the options with every unset field at its
// default.
func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.WorkerID == "" {
		o.WorkerID = fmt.Sprintf("w%d", os.Getpid())
	}
	if o.BaseBackoff == 0 {
		o.BaseBackoff = 50 * time.Millisecond
	}
	if o.MaxBackoff == 0 {
		o.MaxBackoff = 2 * time.Second
	}
	if o.Client == nil {
		o.Client = http.DefaultClient
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.Context == nil {
		o.Context = context.Background()
	}
	return o
}

// Join is the one worker loop, against the campaign service — favserve's
// or the one ServeScan starts for its campaign: say hello, rebuild the
// granted campaign from its spec — the worker needs no local program
// knowledge — pull, execute and submit its work units until it is done or
// shut down, and say hello again, which tells the server the worker is
// through with that campaign and asks for the next. The hello is a held
// request: a service with nothing to run parks it until it has, so an
// idle worker starts on a submission at once. telemetryFor, when non-nil,
// selects the registry for each granted campaign in place of
// opts.Telemetry — the service points its in-process workers at the
// campaign's own registry.
//
// Join returns when the server dismisses the worker: nil after campaigns
// that completed (or before any), ErrShutdown when the last campaign it
// worked on was cut short. It returns ErrUnreachable when the server
// stays unreachable through a request's retry budget,
// campaign.ErrInterrupted when opts.Context is cancelled, and a permanent
// error for admission or protocol failures.
func Join(baseURL string, opts WorkerOptions, telemetryFor func(Spec) *telemetry.Registry) error {
	w := worker{base: strings.TrimSuffix(baseURL, "/"), opts: opts.withDefaults()}
	// Every request runs on a child of the caller's context, so none —
	// a heartbeat in flight included — outlives Join.
	ctx, cancel := context.WithCancel(w.opts.Context)
	defer cancel()
	w.opts.Context = ctx
	hello := EncodeHello(Hello{WorkerID: w.opts.WorkerID})
	held := "/v1/handshake" + HoldQuery(w.opts.Client)
	var last error // how the campaign before this hello ended
	for {
		asked := time.Now()
		body, err := w.post(held, hello, handshakeRetries)
		if err != nil {
			return err
		}
		reply, err := DecodeHelloReply(body)
		if err != nil {
			return fmt.Errorf("cluster: handshake: %w", err)
		}
		switch reply.Status {
		case HelloShutdown:
			w.opts.Logf("worker %s: dismissed by %s", w.opts.WorkerID, w.base)
			return last
		case HelloWait:
			// The hold ran out with nothing to do — or came back early from
			// a server that does not hold; then wait out the spacing.
			if !Pace(w.opts.Context, asked, AskSpacing) {
				return campaign.ErrInterrupted
			}
			continue
		}
		spec, err := DecodeSpec(reply.Spec)
		if err != nil {
			return fmt.Errorf("cluster: handshake spec: %w", err)
		}
		reg := w.opts.Telemetry
		if telemetryFor != nil {
			reg = telemetryFor(spec)
		}
		// Each campaign gets a worker of its own: the heartbeat of the last
		// unit may still be reading the one before's.
		cw := w
		if last = cw.run(spec, reg); last != nil && !errors.Is(last, ErrShutdown) {
			return last
		}
	}
}

// run works on one granted campaign until it completes (nil) or is shut
// down (ErrShutdown).
func (w *worker) run(spec Spec, reg *telemetry.Registry) error {
	if spec.Proto != ProtoVersion {
		return fmt.Errorf("%w: coordinator speaks protocol %d, this worker %d", ErrRejected, spec.Proto, ProtoVersion)
	}
	if err := w.rebuild(spec, reg); err != nil {
		return err
	}
	defer w.session.Close()
	w.opts.Logf("worker %s: joined %s (%s, %d classes, %s space)",
		w.opts.WorkerID, w.base, spec.Name, len(w.space.Classes), w.space.Kind)
	return w.loop()
}

type worker struct {
	base string
	opts WorkerOptions

	// The campaign being worked on, set by rebuild.
	spec  Spec
	space *pruning.FaultSpace
	// session executes every leased unit of the campaign on the same
	// worker machines and the same golden pass.
	session *campaign.Session

	// spans records this worker's slice of the campaign timeline (nil
	// when the spec carries no trace ID, i.e. tracing off). The recorder
	// is drained into every submission, so spans ride the existing result
	// path to the coordinator instead of needing their own endpoint.
	spans *telemetry.SpanRecorder
}

// rebuild reconstructs the campaign from the handshake spec via
// BuildCampaign — the worker-side half of the admission check — and
// layers this worker's local execution choices (all outcome-invariant)
// on top of the outcome-relevant config the spec pins down.
func (w *worker) rebuild(spec Spec, reg *telemetry.Registry) error {
	// A nonzero trace ID in the spec switches span tracing on: this
	// worker records its slice of the campaign timeline and ships it back
	// with each submission.
	if !spec.TraceID.IsZero() {
		w.spans = telemetry.NewSpanRecorder(spec.TraceID, w.opts.WorkerID, 0)
	}
	sp := w.spans.Start("worker.rebuild")
	t, g, fs, cfg, err := BuildCampaign(spec)
	if err != nil {
		return err
	}
	if sp.Live() {
		sp.End(fmt.Sprintf("%s: golden replay + %d classes", spec.Name, len(fs.Classes)))
	}
	cfg.Workers = w.opts.Workers
	cfg.Strategy = w.opts.Strategy
	cfg.Predecode = w.opts.Predecode
	cfg.Context = w.opts.Context
	cfg.Telemetry = reg
	cfg.Spans = w.spans
	if w.session, err = campaign.OpenSession(t, g, fs, cfg); err != nil {
		return err
	}
	w.space, w.spec = fs, spec
	return nil
}

func (w *worker) loop() error {
	leaseReq := EncodeLeaseRequest(LeaseRequest{Identity: w.spec.Identity, WorkerID: w.opts.WorkerID})
	held := "/v1/lease" + HoldQuery(w.opts.Client)
	for {
		if w.opts.Context.Err() != nil {
			return campaign.ErrInterrupted
		}
		// Span the lease round trip: on a fleet whose units are small, the
		// HTTP protocol overhead is where the wall time goes, and a timeline
		// that leaves it dark would misattribute it to the scans. The ask
		// carries no hold, so the span — and cluster.lease_rtt — is a round
		// trip and nothing else.
		sp := w.spans.Start("worker.lease")
		u, err := w.lease("/v1/lease", leaseReq)
		if err != nil {
			return err
		}
		if sp.Live() {
			sp.End("")
		}
		if u.Status == UnitWait {
			// Every unit is leased out. Ask again, held: the coordinator
			// parks the request until a unit is pending again or the campaign
			// ends. One worker.wait span covers the whole idle stretch.
			waitStart := time.Now()
			for u.Status == UnitWait {
				asked := time.Now()
				if u, err = w.lease(held, leaseReq); err != nil {
					return err
				}
				if u.Status == UnitWait && !Pace(w.opts.Context, asked, AskSpacing) {
					return campaign.ErrInterrupted
				}
			}
			w.spans.Record("worker.wait", "", waitStart, time.Since(waitStart))
		}
		switch u.Status {
		case UnitDone:
			w.opts.Logf("worker %s: campaign complete", w.opts.WorkerID)
			return nil
		case UnitShutdown:
			return ErrShutdown
		}

		for _, ci := range u.Classes {
			if ci >= len(w.space.Classes) {
				return fmt.Errorf("%w: leased class %d outside the fault space", ErrRejected, ci)
			}
		}
		entries, err := w.runUnit(u)
		if err != nil {
			if errors.Is(err, campaign.ErrInterrupted) {
				// Die abruptly, as a crashed worker would: the unit's lease
				// expires and the coordinator reassigns it.
				return campaign.ErrInterrupted
			}
			return err
		}
		if err := w.submit(u, entries); err != nil {
			return err
		}
		w.opts.Logf("worker %s: unit %d done (%d classes)", w.opts.WorkerID, u.ID, len(u.Classes))
	}
}

// lease asks for a unit at path (with or without a hold).
func (w *worker) lease(path string, leaseReq []byte) (WorkUnit, error) {
	body, err := w.post(path, leaseReq, requestRetries)
	if err != nil {
		return WorkUnit{}, err
	}
	u, err := DecodeWorkUnit(body)
	if err != nil {
		return u, fmt.Errorf("cluster: lease: %w", err)
	}
	return u, nil
}

// runUnit executes one leased unit on the campaign's scan session,
// heartbeating the lease while it runs, and returns the unit's results
// in class order.
func (w *worker) runUnit(u WorkUnit) ([]checkpoint.Entry, error) {
	ctx, stop := context.WithCancel(w.opts.Context)
	defer stop()
	go w.heartbeat(ctx, u.ID)
	sp := w.spans.Start("unit.scan")
	entries := make([]checkpoint.Entry, 0, len(u.Classes))
	err := w.session.Run(u.Classes, func(ci int, o campaign.Outcome) {
		entries = append(entries, checkpoint.Entry{Class: ci, Outcome: uint8(o)})
	})
	if err == nil && sp.Live() {
		sp.End(fmt.Sprintf("unit %d (%d classes)", u.ID, len(u.Classes)))
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Class < entries[j].Class })
	return entries, err
}

// heartbeat extends the lease of a unit every LeaseTTL/3 until ctx ends;
// a heartbeat in flight then is let finish, unless Join returns first.
// Failures are ignored: a missed heartbeat at worst costs a reassignment,
// which the idempotent merge absorbs.
func (w *worker) heartbeat(ctx context.Context, unitID uint64) {
	frame := EncodeHeartbeat(Heartbeat{Identity: w.spec.Identity, WorkerID: w.opts.WorkerID, Units: []uint64{unitID}})
	t := time.NewTicker(w.spec.LeaseTTL / 3)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			postOnce(w.opts.Context, w.opts.Client, w.base+"/v1/heartbeat", frame)
		}
	}
}

func (w *worker) submit(u WorkUnit, entries []checkpoint.Entry) error {
	// The worker.submit span ends after the drain below, so it ships with
	// the NEXT submission — each timeline batch trails the round trip that
	// carried the previous one. The final submit span of a campaign is
	// never shipped; the coordinator's unit.lease span covers that tail.
	sp := w.spans.Start("worker.submit")
	_, err := w.post("/v1/submit", EncodeSubmission(Submission{
		Identity: w.spec.Identity,
		WorkerID: w.opts.WorkerID,
		UnitID:   u.ID,
		Token:    u.Token,
		Entries:  entries,
		// Drain the recorder into the submission: spans ride the result
		// path, so the coordinator's timeline grows as work completes with
		// no extra round trips. Nil (and zero wire bytes) when tracing is
		// off.
		Spans: w.spans.Drain(),
	}), requestRetries)
	if err == nil && sp.Live() {
		sp.End(fmt.Sprintf("unit %d", u.ID))
	}
	return err
}

// post issues one POST, retried up to budget attempts with exponential
// backoff — the worker's one retry loop. Transport errors and 5xx
// responses are retried; 4xx responses are permanent (ErrRejected).
func (w *worker) post(path string, body []byte, budget int) ([]byte, error) {
	backoff := w.opts.BaseBackoff
	var lastErr error
	for attempt := 0; attempt < budget; attempt++ {
		if attempt > 0 {
			select {
			case <-w.opts.Context.Done():
				return nil, campaign.ErrInterrupted
			case <-time.After(backoff):
			}
			backoff *= 2
			if backoff > w.opts.MaxBackoff {
				backoff = w.opts.MaxBackoff
			}
		}
		resp, status, err := postOnce(w.opts.Context, w.opts.Client, w.base+path, body)
		switch {
		case err != nil && w.opts.Context.Err() != nil:
			// The interrupt cancels requests in flight; that is not the
			// coordinator failing.
			return nil, campaign.ErrInterrupted
		case err != nil:
			lastErr = err
		case status == http.StatusOK:
			return resp, nil
		case status >= 500:
			lastErr = fmt.Errorf("cluster: %s: HTTP %d: %s", path, status, strings.TrimSpace(string(resp)))
		default:
			return nil, fmt.Errorf("%w: %s: HTTP %d: %s", ErrRejected, path, status, strings.TrimSpace(string(resp)))
		}
		w.opts.Logf("worker %s: %s attempt %d/%d failed: %v", w.opts.WorkerID, path, attempt+1, budget, lastErr)
	}
	return nil, fmt.Errorf("%w: %s after %d attempts: %v", ErrUnreachable, path, budget, lastErr)
}

// maxBody bounds request and response bodies; submissions are the
// largest legitimate message (a few bytes per class).
const maxBody = 16 << 20

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

// postOnce issues one POST of a wire message and returns the response
// body and the status code — the one request primitive under the worker's
// retrying post and its best-effort heartbeat. A response above the wire
// bound is an error, not a truncated message.
func postOnce(ctx context.Context, client *http.Client, url string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := ReadBounded(resp.Body)
	if err != nil {
		return nil, 0, fmt.Errorf("cluster: %s: %w", url, err)
	}
	return data, resp.StatusCode, nil
}
