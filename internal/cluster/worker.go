package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
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
	// Logf, when non-nil, receives worker life-cycle log lines — from
	// the goroutine that made the request a line is about, so from more
	// than one at a time.
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
		// Each campaign gets a worker of its own: run gives it the
		// campaign's context and requests in flight.
		cw := w
		if last = cw.run(spec, reg); last != nil && !errors.Is(last, ErrShutdown) {
			return last
		}
	}
}

// run works on one granted campaign until it completes (nil) or is shut
// down (ErrShutdown). The campaign has a context of its own, cut when
// it ends: its heartbeat and the requests it has in flight end with it,
// and run waits for them, so no goroutine of a campaign outlives it.
func (w *worker) run(spec Spec, reg *telemetry.Registry) error {
	if spec.Proto != ProtoVersion {
		return fmt.Errorf("%w: coordinator speaks protocol %d, this worker %d", ErrRejected, spec.Proto, ProtoVersion)
	}
	ctx, cancel := context.WithCancel(w.opts.Context)
	defer cancel()
	w.opts.Context = ctx
	w.bg = &background{cancel: cancel}
	if err := w.rebuild(spec, reg); err != nil {
		return err
	}
	defer w.session.Close()
	w.opts.Logf("worker %s: joined %s (%s, %d classes, %s space)",
		w.opts.WorkerID, w.base, spec.Name, len(w.space.Classes), w.space.Kind)
	return w.bg.stop(w.loop())
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

	// bg is what the scan thread shares with the campaign's goroutines.
	bg *background
}

// background is what a campaign's scan thread shares with its
// goroutines — the heartbeat, the ask for the next unit and the
// submission of the last one: the error the campaign ended with and the
// units held.
type background struct {
	wg     sync.WaitGroup
	cancel context.CancelFunc

	mu sync.Mutex
	// err is the first error that ended the campaign: a request that
	// failed in the background cuts the scan short, and what that scan
	// then returns — ErrInterrupted — is not the error.
	err error
	// held lists the units leased and not scanned to the end, for the
	// heartbeat: the one scanning and the one asked for ahead.
	held []uint64
}

// fail ends the campaign with err, unless an error ended it before, and
// cuts its scan and every request in flight.
func (b *background) fail(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.mu.Unlock()
	b.cancel()
}

// stop ends the campaign as the scan thread left it — with err, unless
// an error ended it before — and returns the error it ended with once
// every goroutine of the campaign has returned.
func (b *background) stop(err error) error {
	if err != nil {
		b.fail(err)
	}
	b.cancel()
	b.wg.Wait()
	return b.err
}

// hold adds a unit to the held list.
func (b *background) hold(id uint64) {
	b.mu.Lock()
	b.held = append(b.held, id)
	b.mu.Unlock()
}

// release takes one lease of a unit off the held list: a unit whose
// lease expired while it scanned may have been granted to the ask ahead
// again, and that lease is held on.
func (b *background) release(id uint64) {
	b.mu.Lock()
	if i := slices.Index(b.held, id); i >= 0 {
		b.held = slices.Delete(b.held, i, i+1)
	}
	b.mu.Unlock()
}

// holding returns a copy of the held list.
func (b *background) holding() []uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return slices.Clone(b.held)
}

// goRun runs f on a goroutine of the campaign, which stop waits for.
func (b *background) goRun(f func()) {
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		f()
	}()
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

// loop works the campaign's units one deep. While a unit scans, the next
// one is asked for without a hold and the one before is submitted, each
// on a goroutine of its own, so the scan thread waits on the network only
// for a campaign's first lease and its last submission. A worker so
// holds at most one unit it has not started and one submission in
// flight.
//
// The tail is the loop without the pipeline. Once an ask ahead is not
// granted, the worker finishes its unit, waits for its submissions to
// land and asks without a hold, then, told to wait, parks in a held ask:
// it never parks holding a unit or with a submission in flight. A unit a
// held ask grants is not asked ahead of: the campaign had nothing
// pending when it parked, so that ask would be answered wait.
//
// An ask ahead granted the unit just scanned — its lease expired during
// the scan and came back to this worker — ends the pipeline the same
// way, without a second scan: the submission in flight closes the unit,
// whichever lease it names. Until it has landed the heartbeat names the
// unit, then the worker lets the lease go and asks as the tail does.
func (w *worker) loop() error {
	leaseReq := EncodeLeaseRequest(LeaseRequest{Identity: w.spec.Identity, WorkerID: w.opts.WorkerID})
	w.bg.goRun(w.heartbeat)
	var sent <-chan error // the submission in flight; nil when none
	u, ahead, err := w.ask(leaseReq)
	for err == nil {
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
		var next <-chan leased
		if ahead {
			next = w.askAhead(leaseReq)
		}
		entries, scanErr := w.runUnit(u)
		if scanErr != nil {
			// An interrupt dies abruptly, as a crashed worker would: the
			// unit's lease expires and the coordinator reassigns it.
			return scanErr
		}
		var n leased
		if next != nil {
			// Taken before the submission drains the spans, which then
			// carry this ask's.
			if n = <-next; n.err != nil {
				return n.err
			}
		}
		if err := landed(sent); err != nil {
			return err
		}
		sent = w.submitBehind(u, entries)
		granted := next != nil && n.u.Status == UnitGranted
		if granted && n.u.ID != u.ID {
			u = n.u
			continue
		}
		if err := landed(sent); err != nil {
			return err
		}
		sent = nil
		if granted {
			// The unit just scanned, granted again: not scanned twice.
			w.bg.release(u.ID)
		}
		u, ahead, err = w.ask(leaseReq)
	}
	return err
}

// leased is the answer to an ask made ahead.
type leased struct {
	u   WorkUnit
	err error
}

// ask asks for a unit as a worker between units does: without a hold,
// then — answered wait, every unit being out — held, until the answer
// is something else. One worker.wait span covers the held stretch. ahead
// reports whether the unit came from the ask without a hold.
func (w *worker) ask(leaseReq []byte) (u WorkUnit, ahead bool, err error) {
	if w.opts.Context.Err() != nil {
		return u, false, campaign.ErrInterrupted
	}
	if u, err = w.roundTrip(leaseReq); err != nil || u.Status != UnitWait {
		return u, true, err
	}
	held := "/v1/lease" + HoldQuery(w.opts.Client)
	waitStart := time.Now()
	for u.Status == UnitWait {
		asked := time.Now()
		if u, err = w.lease(held, leaseReq); err != nil {
			return u, false, err
		}
		if u.Status == UnitWait && !Pace(w.opts.Context, asked, AskSpacing) {
			return u, false, campaign.ErrInterrupted
		}
	}
	w.spans.Record("worker.wait", "", waitStart, time.Since(waitStart))
	return u, false, nil
}

// roundTrip asks for a unit without a hold. Span the lease round trip: on
// a fleet whose units are small, the HTTP protocol overhead is where the
// wall time goes, and a timeline that leaves it dark would misattribute
// it to the scans. The ask carries no hold, so the span — and
// cluster.lease_rtt — is a round trip and nothing else.
func (w *worker) roundTrip(leaseReq []byte) (WorkUnit, error) {
	sp := w.spans.Start("worker.lease")
	u, err := w.lease("/v1/lease", leaseReq)
	if err == nil && sp.Live() {
		sp.End("")
	}
	return u, err
}

// askAhead asks for the next unit without a hold, on a goroutine of the
// campaign. A failure ends the campaign at once.
func (w *worker) askAhead(leaseReq []byte) <-chan leased {
	c := make(chan leased, 1)
	w.bg.goRun(func() {
		u, err := w.roundTrip(leaseReq)
		if err != nil {
			w.bg.fail(err)
		}
		c <- leased{u, err}
	})
	return c
}

// submitBehind submits a scanned unit's results on a goroutine of the
// campaign and logs the unit done once they have landed. A failure ends
// the campaign at once, the scan of the next unit included.
func (w *worker) submitBehind(u WorkUnit, entries []checkpoint.Entry) <-chan error {
	c := make(chan error, 1)
	w.bg.goRun(func() {
		err := w.submit(u, entries)
		if err != nil {
			w.bg.fail(err)
		} else {
			w.opts.Logf("worker %s: unit %d done (%d classes)", w.opts.WorkerID, u.ID, len(u.Classes))
		}
		c <- err
	})
	return c
}

// landed waits for the submission in flight, if any, to land.
func landed(sent <-chan error) error {
	if sent == nil {
		return nil
	}
	return <-sent
}

// lease asks for a unit at path (with or without a hold); a granted one
// is held until its scan ends.
func (w *worker) lease(path string, leaseReq []byte) (WorkUnit, error) {
	body, err := w.post(path, leaseReq, requestRetries)
	if err != nil {
		return WorkUnit{}, err
	}
	u, err := DecodeWorkUnit(body)
	if err != nil {
		return u, fmt.Errorf("cluster: lease: %w", err)
	}
	if u.Status == UnitGranted {
		w.bg.hold(u.ID)
	}
	return u, nil
}

// runUnit executes one leased unit on the campaign's scan session and
// returns the unit's results in class order.
func (w *worker) runUnit(u WorkUnit) ([]checkpoint.Entry, error) {
	defer w.bg.release(u.ID)
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

// heartbeat extends the leases of the units the worker holds every
// LeaseTTL/3 until the campaign ends, which cuts a heartbeat in flight.
// Failures are ignored: a missed heartbeat at worst costs a
// reassignment, which the idempotent merge absorbs.
func (w *worker) heartbeat() {
	t := time.NewTicker(w.spec.LeaseTTL / 3)
	defer t.Stop()
	for {
		select {
		case <-w.opts.Context.Done():
			return
		case <-t.C:
			if units := w.bg.holding(); len(units) > 0 {
				frame := EncodeHeartbeat(Heartbeat{Identity: w.spec.Identity, WorkerID: w.opts.WorkerID, Units: units})
				postOnce(w.opts.Context, w.opts.Client, w.base+"/v1/heartbeat", frame)
			}
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
