package cluster_test

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"faultspace/internal/campaign"
	. "faultspace/internal/cluster"
	"faultspace/internal/pruning"
	"faultspace/internal/service"
	"faultspace/internal/telemetry"
	"faultspace/internal/trace"
)

// server is a loopback campaign service hosting one campaign, as
// ServeScan serves it: id is the campaign's identity and wait what Host
// returned.
type server struct {
	*httptest.Server
	svc  *service.Service
	id   [32]byte
	wait func() (*campaign.Result, error)
}

// serveCampaign hosts a campaign on an in-memory campaign service with
// sopts' unit size and lease TTL — the host's context a child of
// cfg.Context — and serves it on a loopback listener. When the test ends
// the campaign is interrupted and the server closed; a fleet that never
// says goodbye keeps the drain, not the test, waiting.
func serveCampaign(t testing.TB, tgt campaign.Target, golden *trace.Golden, fs *pruning.FaultSpace, cfg campaign.Config, sopts service.Options, prior map[int]campaign.Outcome) server {
	t.Helper()
	svc, err := service.New(sopts)
	if err != nil {
		t.Fatal(err)
	}
	id, err := tgt.CampaignIdentity(fs.Kind, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(cmp.Or(cfg.Context, context.Background()))
	cfg.Context = ctx
	wait, err := svc.Host(tgt, golden, fs, cfg, MaxGolden, prior, nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	srv := server{httptest.NewServer(svc.Handler()), svc, id, wait}
	t.Cleanup(func() {
		cancel()
		srv.Close()
	})
	return srv
}

// campaignStatus reads the hosted campaign's status, as a client does.
func campaignStatus(t *testing.T, srv server) service.CampaignStatus {
	t.Helper()
	var st service.CampaignStatus
	getJSON(t, campaignURL(srv), &st)
	return st
}

// peek reads a response's body and puts it back for the worker to read.
func peek(resp *http.Response) ([]byte, error) {
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return body, err
}

// onUnit is a worker's HTTP transport that shows the test every lease
// answer before the worker reads it.
type onUnit func(u WorkUnit)

func (f onUnit) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err != nil || !strings.HasPrefix(r.URL.Path, "/v1/lease") {
		return resp, err
	}
	body, err := peek(resp)
	if err != nil {
		return nil, err
	}
	if u, err := DecodeWorkUnit(body); err == nil {
		f(u)
	}
	return resp, nil
}

// gate is a worker's HTTP transport that holds the worker's first lease
// request until open is closed, and calls granted, when set, once the
// worker's first handshake is granted. It orders a fleet test's workers
// without touching the server: a campaign of a few milliseconds is
// otherwise over before the slower worker's first hello.
type gate struct {
	next    http.RoundTripper
	open    <-chan struct{}
	granted func()

	leased, joined sync.Once
}

func (g *gate) RoundTrip(r *http.Request) (*http.Response, error) {
	if strings.HasPrefix(r.URL.Path, "/v1/lease") {
		g.leased.Do(func() {
			select {
			case <-g.open:
			case <-r.Context().Done():
			}
		})
	}
	resp, err := g.next.RoundTrip(r)
	if err != nil || g.granted == nil || !strings.HasPrefix(r.URL.Path, "/v1/handshake") {
		return resp, err
	}
	body, err := peek(resp)
	if err != nil {
		return nil, err
	}
	if h, err := DecodeHelloReply(body); err == nil && h.Status == HelloGranted {
		g.joined.Do(g.granted)
	}
	return resp, nil
}

// runCluster joins the served campaign with the given worker option sets
// concurrently and returns the result plus the per-worker Join errors.
// Like ServeScan it waits for the campaign, then shuts the service down,
// which dismisses the workers.
func runCluster(t testing.TB, srv server, workers []WorkerOptions) (*campaign.Result, []error) {
	t.Helper()
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w WorkerOptions) {
			defer wg.Done()
			errs[i] = Join(srv.URL, w, nil)
		}(i, w)
	}
	res, err := srv.wait()
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	srv.svc.Shutdown()
	wg.Wait()
	return res, errs
}

func assertPlacementEquivalent(t *testing.T, tgt campaign.Target, golden *trace.Golden, fs *pruning.FaultSpace, got *campaign.Result) {
	t.Helper()
	want, err := campaign.ResumeScan(tgt, golden, fs, campaign.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Identity != want.Identity {
		t.Error("distributed campaign must keep the local campaign identity")
	}
	if len(got.Outcomes) != len(want.Outcomes) {
		t.Fatalf("outcome vector length %d, want %d", len(got.Outcomes), len(want.Outcomes))
	}
	for i := range want.Outcomes {
		if got.Outcomes[i] != want.Outcomes[i] {
			t.Fatalf("class %d (slot %d, bit %d): distributed %v, local %v", i,
				fs.Classes[i].Slot(), fs.Classes[i].Bit, got.Outcomes[i], want.Outcomes[i])
		}
	}
}

// TestClusterPlacementEquivalence: a coordinator plus two loopback
// workers — one snapshot, one rerun — must produce the exact outcome
// vector of a local scan. Neither worker asks for a unit before both
// have joined, so both take part however fast the other is.
func TestClusterPlacementEquivalence(t *testing.T) {
	tgt, golden, fs := SmallCampaign(t, "bin_sem2")
	srv := serveCampaign(t, tgt, golden, fs, campaign.Config{}, service.Options{UnitSize: 32}, nil)
	var joined sync.WaitGroup
	joined.Add(2)
	both := make(chan struct{})
	go func() {
		joined.Wait()
		close(both)
	}()
	gated := func() *http.Client {
		return &http.Client{Transport: &gate{next: http.DefaultTransport, open: both, granted: joined.Done}}
	}
	res, errs := runCluster(t, srv, []WorkerOptions{
		{WorkerID: "snap", Client: gated()},
		{WorkerID: "rerun", Strategy: campaign.StrategyRerun, Client: gated()},
	})
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	assertPlacementEquivalent(t, tgt, golden, fs, res)

	p := campaignStatus(t, srv)
	if p.Done != len(fs.Classes) || p.Leases != 0 {
		t.Errorf("final progress: done %d/%d, %d leases outstanding", p.Done, p.Total, p.Leases)
	}
	if len(p.Workers) != 2 {
		t.Errorf("progress knows %d workers, want 2", len(p.Workers))
	}
	var merged int
	for _, ws := range p.Workers {
		merged += ws.Merged
	}
	if merged != len(fs.Classes) {
		t.Errorf("workers merged %d classes, want %d", merged, len(fs.Classes))
	}
}

// TestClusterKillWorkerMidScan kills one worker abruptly mid-unit (no
// submit, no leave — exactly a crash) and proves the lease machinery
// loses nothing: the survivor finishes, at least one unit is reassigned,
// and the result still matches a local scan. The survivor asks for
// its first unit only once the victim holds one, so the kill always
// lands however fast the survivor is.
func TestClusterKillWorkerMidScan(t *testing.T) {
	tgt, golden, fs := SmallCampaign(t, "sort1")
	srv := serveCampaign(t, tgt, golden, fs, campaign.Config{}, service.Options{
		UnitSize: 16,
		LeaseTTL: 150 * time.Millisecond,
	}, nil)

	killCtx, kill := context.WithCancel(context.Background())
	victimLeased := make(chan struct{})
	var once sync.Once
	victim := WorkerOptions{
		WorkerID: "victim",
		Context:  killCtx,
		// Slow strategy + single executor so the kill lands mid-unit.
		Strategy: campaign.StrategyRerun,
		Workers:  1,
		Client: &http.Client{Transport: onUnit(func(u WorkUnit) {
			if u.Status == UnitGranted {
				once.Do(func() {
					kill()
					close(victimLeased)
				})
			}
		})},
	}
	survivor := WorkerOptions{WorkerID: "survivor", Client: &http.Client{
		Transport: &gate{next: http.DefaultTransport, open: victimLeased},
	}}

	res, errs := runCluster(t, srv, []WorkerOptions{victim, survivor})
	if !errors.Is(errs[0], campaign.ErrInterrupted) {
		t.Errorf("victim: err = %v, want ErrInterrupted", errs[0])
	}
	if errs[1] != nil {
		t.Errorf("survivor: %v", errs[1])
	}
	assertPlacementEquivalent(t, tgt, golden, fs, res)
	if got := campaignStatus(t, srv).Reassignments; got < 1 {
		t.Errorf("reassignments = %d, want >= 1 (the victim's leased unit must expire and move)", got)
	}
}

// TestClusterResumeFromPrior seeds the coordinator with half the
// outcomes (as a checkpoint restore would) and verifies only the
// remainder is executed, with the merged result still bit-identical.
func TestClusterResumeFromPrior(t *testing.T) {
	tgt, golden, fs := SmallCampaign(t, "hi")
	want, err := campaign.ResumeScan(tgt, golden, fs, campaign.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	prior := make(map[int]campaign.Outcome)
	for i := 0; i < len(fs.Classes)/2; i++ {
		prior[i] = want.Outcomes[i]
	}
	srv := serveCampaign(t, tgt, golden, fs, campaign.Config{}, service.Options{UnitSize: 4}, prior)
	res, errs := runCluster(t, srv, []WorkerOptions{{WorkerID: "w"}})
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	assertPlacementEquivalent(t, tgt, golden, fs, res)
	// The session's classes are the ones its workers merged.
	var session int
	for _, ws := range campaignStatus(t, srv).Workers {
		session += ws.Merged
	}
	if session != len(fs.Classes)-len(prior) {
		t.Errorf("session executed %d classes, want %d (prior must not re-run)", session, len(fs.Classes)-len(prior))
	}
}

// TestClusterIdentityAdmission: requests carrying a different campaign
// identity must be rejected with HTTP 409 — the admission check that
// keeps a worker with a different program image, fault space or timeout
// budget out of the campaign.
func TestClusterIdentityAdmission(t *testing.T) {
	tgt, golden, fs := SmallCampaign(t, "hi")
	srv := serveCampaign(t, tgt, golden, fs, campaign.Config{}, service.Options{}, nil)

	var wrong [32]byte
	wrong[0] = 0xff
	for _, tc := range []struct {
		path string
		body []byte
	}{
		{"/v1/lease", EncodeLeaseRequest(LeaseRequest{Identity: wrong, WorkerID: "evil"})},
		{"/v1/submit", EncodeSubmission(Submission{Identity: wrong, WorkerID: "evil"})},
		{"/v1/heartbeat", EncodeHeartbeat(Heartbeat{Identity: wrong, WorkerID: "evil"})},
	} {
		resp, err := http.Post(srv.URL+tc.path, "application/octet-stream", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Errorf("%s with foreign identity: HTTP %d, want 409", tc.path, resp.StatusCode)
		}
	}

	// A worker whose timeout budget differs computes a different identity
	// and must refuse during its own handshake verification too: simulate
	// by corrupting the spec the coordinator would serve. Covered from the
	// worker side via the spec of a different campaign.
	tgt2, _, fs2 := SmallCampaign(t, "sort1")
	cfg2 := campaign.Config{TimeoutFactor: 2}
	spec2, err := NewSpec(tgt2, fs2.Kind, cfg2, MaxGolden, uint64(len(fs2.Classes)))
	if err != nil {
		t.Fatal(err)
	}
	if srv.id == spec2.Identity {
		t.Error("different campaigns must have different identities")
	}
}

// TestClusterInterruptShutdown: cancelling the campaign's context stops
// lease grants; a worker of the campaign receives the shutdown notice, is
// dismissed by its next hello once the service drains, as ServeScan's
// does after Wait, and exits with ErrShutdown. One that arrives after
// the interrupt is dismissed at the handshake without rebuilding
// anything, and has nothing to report.
func TestClusterInterruptShutdown(t *testing.T) {
	tgt, golden, fs := SmallCampaign(t, "hi")
	ctx, intCh := context.WithCancel(context.Background())
	srv := serveCampaign(t, tgt, golden, fs, campaign.Config{Context: ctx, Telemetry: telemetry.New()}, service.Options{UnitSize: 4}, nil)

	var once sync.Once
	early := make(chan error, 1)
	go func() {
		early <- Join(srv.URL, WorkerOptions{WorkerID: "early", Client: &http.Client{Transport: onUnit(func(u WorkUnit) {
			if u.Status == UnitGranted {
				once.Do(intCh)
			}
		})}}, nil)
	}()
	if _, err := srv.wait(); !errors.Is(err, campaign.ErrInterrupted) {
		t.Fatalf("Wait: %v, want ErrInterrupted", err)
	}
	srv.svc.Shutdown()
	if err := <-early; !errors.Is(err, ErrShutdown) {
		t.Errorf("Join across the interrupt: %v, want ErrShutdown", err)
	}
	if joined(t, srv) != 0 {
		t.Error("the dismissed worker still counts as joined")
	}
	var rebuilt bool
	err := Join(srv.URL, WorkerOptions{WorkerID: "late", Logf: func(format string, _ ...any) {
		rebuilt = rebuilt || strings.Contains(format, "joined")
	}}, nil)
	if err != nil || rebuilt {
		t.Errorf("Join after the interrupt: %v, rebuilt the campaign: %v; want dismissed at the handshake", err, rebuilt)
	}
}

// TestClusterMethodRejection: every mutating worker endpoint enforces
// POST and the read endpoints GET; anything else gets 405 with an Allow
// header naming the one accepted method.
func TestClusterMethodRejection(t *testing.T) {
	tgt, golden, fs := SmallCampaign(t, "hi")
	srv := serveCampaign(t, tgt, golden, fs, campaign.Config{}, service.Options{}, nil)

	cases := []struct {
		path   string
		method string // the rejected method to try
		allow  string
	}{
		{"/v1/handshake", http.MethodGet, "POST"},
		{"/v1/handshake", http.MethodDelete, "POST"},
		{"/v1/lease", http.MethodGet, "POST"},
		{"/v1/submit", http.MethodGet, "POST"},
		{"/v1/submit", http.MethodPut, "POST"},
		{"/v1/heartbeat", http.MethodGet, "POST"},
		{"/v1/status", http.MethodPost, "GET"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: HTTP %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Errorf("%s %s: Allow %q, want %q", tc.method, tc.path, got, tc.allow)
		}
	}
}

// TestCoordinatorPartialResultPending: an interrupted hosted campaign's
// partial result says how many classes have no outcome, which is what
// keeps it from being archived or analyzed as a complete campaign.
func TestCoordinatorPartialResultPending(t *testing.T) {
	tgt, golden, fs := SmallCampaign(t, "hi")
	ctx, interrupt := context.WithCancel(context.Background())
	interrupt()
	prior := map[int]campaign.Outcome{0: campaign.OutcomeNoEffect, 3: campaign.OutcomeNoEffect}
	res, err := hostOnly(t, tgt, golden, fs, campaign.Config{Context: ctx}, prior)
	if !errors.Is(err, campaign.ErrInterrupted) || res == nil {
		t.Fatalf("Wait: result %v, err = %v", res, err)
	}
	if want := len(fs.Classes) - len(prior); res.Pending != want {
		t.Errorf("partial result: Pending = %d, want %d", res.Pending, want)
	}
}

// TestWaitCompletionWins: a campaign whose every class has an outcome is
// complete, even when its context has ended too by the time Wait looks —
// as under a resume from a checkpoint holding every class, after a
// SIGINT. Sixty-four hosted campaigns, so that a choice left to chance
// would show.
func TestWaitCompletionWins(t *testing.T) {
	tgt, golden, fs := SmallCampaign(t, "hi")
	prior := make(map[int]campaign.Outcome, len(fs.Classes))
	for ci := range fs.Classes {
		prior[ci] = campaign.OutcomeNoEffect
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 64; i++ {
		if res, err := hostOnly(t, tgt, golden, fs, campaign.Config{Context: ctx}, prior); err != nil || res.Pending != 0 {
			t.Fatalf("coordinator %d: Wait: err = %v, Pending = %d; want the complete result", i, err, res.Pending)
		}
	}
}

// hostOnly hosts a campaign on a service of its own with no listener and
// no fleet, and returns what its wait returns once the service has shut
// down.
func hostOnly(t *testing.T, tgt campaign.Target, golden *trace.Golden, fs *pruning.FaultSpace, cfg campaign.Config, prior map[int]campaign.Outcome) (*campaign.Result, error) {
	t.Helper()
	svc, err := service.New(service.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()
	wait, err := svc.Host(tgt, golden, fs, cfg, MaxGolden, prior, nil)
	if err != nil {
		t.Fatal(err)
	}
	return wait()
}

// joined is how many workers the hosted campaign counts as joined: the
// cluster.active_workers gauge of its status, which a campaign hosted
// with a registry carries.
func joined(t *testing.T, srv server) int64 {
	t.Helper()
	st := campaignStatus(t, srv)
	if st.Telemetry == nil {
		t.Fatal("the campaign's status carries no telemetry: host it with a registry")
	}
	return st.Telemetry.Gauges["cluster.active_workers"]
}
