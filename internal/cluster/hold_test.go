package cluster_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"faultspace/internal/campaign"
	. "faultspace/internal/cluster"
	"faultspace/internal/leakcheck"
	"faultspace/internal/service"
	"faultspace/internal/telemetry"
)

// oneUnitCoordinator serves a campaign carved into a single unit, so a
// second asker always draws UnitWait while the first holds the lease. cfg
// brings the host's context and registry; a zero ttl is the default lease
// TTL.
func oneUnitCoordinator(t *testing.T, cfg campaign.Config, ttl time.Duration) (server, []campaign.Outcome) {
	t.Helper()
	tgt, golden, fs := SmallCampaign(t, "hi")
	want, err := campaign.ResumeScan(tgt, golden, fs, campaign.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := serveCampaign(t, tgt, golden, fs, cfg, service.Options{UnitSize: len(fs.Classes), LeaseTTL: ttl}, nil)
	return srv, want.Outcomes
}

// askLease posts one lease request with the given query ("" or
// "?wait=...") and returns the answer, the HTTP status and how long the
// server took.
func askLease(t *testing.T, url, query string, id [32]byte, workerID string) (WorkUnit, int, time.Duration) {
	t.Helper()
	start := time.Now()
	resp, err := http.Post(url+"/v1/lease"+query, "application/octet-stream",
		bytes.NewReader(EncodeLeaseRequest(LeaseRequest{Identity: id, WorkerID: workerID})))
	if err != nil {
		t.Error(err)
		return WorkUnit{}, 0, 0
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	took := time.Since(start)
	if err != nil {
		t.Error(err)
		return WorkUnit{}, 0, took
	}
	if resp.StatusCode != http.StatusOK {
		return WorkUnit{}, resp.StatusCode, took
	}
	u, err := DecodeWorkUnit(body)
	if err != nil {
		t.Error(err)
	}
	return u, resp.StatusCode, took
}

// postAs posts one protocol frame, which must be accepted.
func postAs(t *testing.T, url, path string, frame []byte) {
	t.Helper()
	resp, err := http.Post(url+path, "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: HTTP %d", path, resp.StatusCode)
	}
}

// helloAs says hello as workerID and returns the coordinator's answer.
func helloAs(t *testing.T, url, workerID string) HelloReply {
	t.Helper()
	resp, err := http.Post(url+"/v1/handshake", "application/octet-stream", bytes.NewReader(EncodeHello(Hello{WorkerID: workerID})))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hello of %s: HTTP %d: %s", workerID, resp.StatusCode, body)
	}
	h, err := DecodeHelloReply(body)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// parkLease starts a held lease ask in the background and returns once
// the coordinator reports it parked.
func parkLease(t *testing.T, reg *telemetry.Registry, url string, id [32]byte, workerID string) <-chan WorkUnit {
	t.Helper()
	held := reg.Gauge("cluster.lease_held")
	before := held.Value()
	got := make(chan WorkUnit, 1)
	go func() {
		u, _, _ := askLease(t, url, "?wait=20s", id, workerID)
		got <- u
	}()
	waitFor(t, "the lease request to park", func() bool { return held.Value() == before+1 })
	return got
}

// prompt is "at once" in these tests. The parked requests below ask for
// a 20 s hold, so a wake-up that got lost costs seconds; a second tells
// that apart from a slow answer on a loaded machine, which a bound of
// milliseconds would not. The measured delays are logged.
const prompt = time.Second

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// answeredAtOnce receives the parked request's answer, which must come
// promptly after the event that released it.
func answeredAtOnce(t *testing.T, got <-chan WorkUnit, since time.Time, want uint8) WorkUnit {
	t.Helper()
	select {
	case u := <-got:
		d := time.Since(since)
		t.Logf("parked lease answered %v after the event", d)
		if d > prompt {
			t.Errorf("parked lease answered %v after the event, want at once", d)
		}
		if u.Status != want {
			t.Errorf("parked lease answered status %d, want %d", u.Status, want)
		}
		return u
	case <-time.After(5 * time.Second):
		t.Fatal("parked lease was not released")
		return WorkUnit{}
	}
}

// TestHeldLeaseWakeConditions drives the lease endpoint at protocol
// level: without ?wait= a would-be UnitWait is answered at once, exactly
// as before; with it the request parks and is released at once by the
// campaign finishing and by an interrupt, and by nothing else before the
// hold runs out. A unit going back to pending and a seal release it too:
// the service's TestHeldLeaseWakeConditions steps the host for those.
func TestHeldLeaseWakeConditions(t *testing.T) {
	t.Run("no wait answers at once", func(t *testing.T) {
		srv, _ := oneUnitCoordinator(t, campaign.Config{}, 0)
		if u := leaseAs(t, srv.URL, srv.id, "holder"); u.Status != UnitGranted {
			t.Fatalf("holder: status %d", u.Status)
		}
		u, _, took := askLease(t, srv.URL, "", srv.id, "asker")
		if u.Status != UnitWait || took > prompt {
			t.Errorf("unheld ask: status %d after %v, want UnitWait at once", u.Status, took)
		}
	})

	t.Run("hold runs out", func(t *testing.T) {
		srv, _ := oneUnitCoordinator(t, campaign.Config{}, 0)
		leaseAs(t, srv.URL, srv.id, "holder")
		u, _, took := askLease(t, srv.URL, "?wait=60ms", srv.id, "asker")
		if u.Status != UnitWait || took < 60*time.Millisecond || took > time.Second {
			t.Errorf("expired hold: status %d after %v, want UnitWait after the 60ms hold", u.Status, took)
		}
	})

	t.Run("malformed wait", func(t *testing.T) {
		srv, _ := oneUnitCoordinator(t, campaign.Config{}, 0)
		for _, q := range []string{"?wait=soon", "?wait=-1s"} {
			if _, status, _ := askLease(t, srv.URL, q, srv.id, "asker"); status != http.StatusBadRequest {
				t.Errorf("%s: HTTP %d, want 400", q, status)
			}
		}
	})

	t.Run("campaign finishes", func(t *testing.T) {
		reg := telemetry.New()
		srv, outcomes := oneUnitCoordinator(t, campaign.Config{Telemetry: reg}, 0)
		u := leaseAs(t, srv.URL, srv.id, "holder")
		got := parkLease(t, reg, srv.URL, srv.id, "asker")
		event := time.Now()
		submitAs(t, srv.URL, srv.id, "holder", u, outcomes)
		answeredAtOnce(t, got, event, UnitDone)
	})

	t.Run("interrupt", func(t *testing.T) {
		reg := telemetry.New()
		ctx, intr := context.WithCancel(context.Background())
		srv, _ := oneUnitCoordinator(t, campaign.Config{Telemetry: reg, Context: ctx}, 0)
		leaseAs(t, srv.URL, srv.id, "holder")
		got := parkLease(t, reg, srv.URL, srv.id, "asker")
		event := time.Now()
		intr()
		answeredAtOnce(t, got, event, UnitShutdown)
	})
}

// TestHeldLeaseReclaimsAtLeaseExpiry is the two-worker campaign of the
// held-lease design: a peer takes the only unit and dies (no submit, no
// heartbeat, no leave). The surviving worker draws UnitWait, parks — and
// must be granted the unit when the dead peer's lease expires, not when
// its own hold does: parked requests are what runs the reclaim now that
// nobody polls. The idle stretch must show up as one worker.wait span
// and leave every worker.lease span a plain round trip (invariant 15).
func TestHeldLeaseReclaimsAtLeaseExpiry(t *testing.T) {
	// Long enough that a round trip on a loaded machine stays well under
	// half of it, which is what tells the spans apart below.
	const ttl = 400 * time.Millisecond
	reg := telemetry.New()
	srv, want := oneUnitCoordinator(t, campaign.Config{Telemetry: reg}, ttl)

	killed := time.Now()
	if u := leaseAs(t, srv.URL, srv.id, "victim"); u.Status != UnitGranted {
		t.Fatalf("victim: status %d", u.Status)
	}
	var mu sync.Mutex
	var answers []uint8
	joined := make(chan error, 1)
	go func() {
		joined <- Join(srv.URL, WorkerOptions{WorkerID: "survivor", Client: &http.Client{Transport: onUnit(func(u WorkUnit) {
			mu.Lock()
			answers = append(answers, u.Status)
			mu.Unlock()
		})}}, nil)
	}()
	res, err := srv.wait()
	if err != nil {
		t.Fatal(err)
	}
	took := time.Since(killed)
	if took < ttl || took > ttl+time.Second {
		t.Errorf("campaign finished %v after the victim's lease was granted; want just after its %v expiry", took, ttl)
	}
	srv.svc.Shutdown()
	if err := <-joined; err != nil {
		t.Fatalf("survivor: %v", err)
	}
	// One unheld ask (UnitWait), one held ask that comes back with the
	// unit, and the final UnitDone. A second UnitWait would mean the
	// worker polled instead of parking.
	if got, wantSeq := answers, []uint8{UnitWait, UnitGranted, UnitDone}; !bytes.Equal(got, wantSeq) {
		t.Errorf("survivor's lease answers %v, want %v", got, wantSeq)
	}
	for i := range want {
		if res.Outcomes[i] != want[i] {
			t.Fatalf("class %d: %v, want %v", i, res.Outcomes[i], want[i])
		}
	}
	if got := campaignStatus(t, srv).Reassignments; got != 1 {
		t.Errorf("reassignments = %d, want 1", got)
	}
	if reg.Gauge("cluster.lease_held").Value() != 0 || reg.Histogram("cluster.lease_hold").Count() != 1 {
		t.Errorf("hold metrics: held %d, holds %d; want 0 and 1",
			reg.Gauge("cluster.lease_held").Value(), reg.Histogram("cluster.lease_hold").Count())
	}

	var waits int
	for _, sp := range timeline(t, srv) {
		if sp.Scope != "survivor" {
			continue
		}
		switch sp.Name {
		case "worker.wait":
			waits++
			if sp.Dur < ttl/2 {
				t.Errorf("worker.wait span of %v does not cover the parked stretch", sp.Dur)
			}
		case "worker.lease":
			if sp.Dur > ttl/2 {
				t.Errorf("worker.lease span of %v contains parked time; it must stay a round trip", sp.Dur)
			}
		}
	}
	if waits != 1 {
		t.Errorf("survivor shipped %d worker.wait spans, want 1", waits)
	}
}

// TestInterruptReleasesParkedJoin: a worker parked on a held lease stops
// as its Context is cancelled, and leaves no goroutine behind.
func TestInterruptReleasesParkedJoin(t *testing.T) {
	reg := telemetry.New()
	srv, _ := oneUnitCoordinator(t, campaign.Config{Telemetry: reg}, 0)
	// Counted from here: the service's runner of the campaign, which the
	// holder below keeps running, is no worker's.
	settled := leakcheck.Goroutines(t)
	leaseAs(t, srv.URL, srv.id, "holder")
	http.DefaultClient.CloseIdleConnections()

	client := &http.Client{Transport: &http.Transport{}}
	ctx, intr := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Join(srv.URL, WorkerOptions{WorkerID: "parked", Context: ctx, Client: client}, nil) }()
	waitFor(t, "the worker to park", func() bool { return reg.Gauge("cluster.lease_held").Value() == 1 })

	closed := time.Now()
	intr()
	select {
	case err := <-done:
		if !errors.Is(err, campaign.ErrInterrupted) {
			t.Errorf("Join: %v, want ErrInterrupted", err)
		}
		d := time.Since(closed)
		t.Logf("Join returned %v after the interrupt", d)
		if d > prompt {
			t.Errorf("Join returned %v after the interrupt, want at once", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a parked lease delayed the interrupt")
	}
	waitFor(t, "the coordinator to notice the asker is gone", func() bool {
		return reg.Gauge("cluster.lease_held").Value() == 0
	})
	client.CloseIdleConnections()
	srv.Close()
	settled()
}

// TestHandshakeJoinsNamedWorker: a worker has joined from its hello on —
// between handshake and first lease it rebuilds the campaign, and a
// drain that starts meanwhile must wait for it instead of closing the
// door on it: it counts in cluster.active_workers until it leaves. A
// hello without a frame or without a name is refused and joins nobody.
// The next hello is the worker's exit notice: it is dismissed, and gone.
// A restarted worker saying hello under its old name gets its stale lease
// back at once, not at lease expiry.
func TestHandshakeJoinsNamedWorker(t *testing.T) {
	srv, outcomes := oneUnitCoordinator(t, campaign.Config{Telemetry: telemetry.New()}, 0)
	tgt, _, fs := SmallCampaign(t, "hi")
	spec, err := NewSpec(tgt, fs.Kind, campaign.Config{}, MaxGolden, uint64(len(fs.Classes)))
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{
		"empty":     nil,
		"nameless":  EncodeHello(Hello{}),
		"bare spec": EncodeSpec(spec),
	} {
		resp, err := http.Post(srv.URL+"/v1/handshake", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s hello: HTTP %d, want 400", name, resp.StatusCode)
		}
	}
	if joined(t, srv) != 0 {
		t.Fatal("a refused handshake must not join a worker")
	}
	h := helloAs(t, srv.URL, "late")
	if granted, err := DecodeSpec(h.Spec); h.Status != HelloGranted || err != nil || granted.Identity != srv.id {
		t.Fatalf("hello of a running campaign: status %d, %d spec bytes; want granted with the spec", h.Status, len(h.Spec))
	}
	if ws := campaignStatus(t, srv).Workers; len(ws) != 1 || ws[0].ID != "late" {
		t.Fatalf("workers after the named handshake: %+v, want late", ws)
	}

	// A peer takes the unit and dies; restarted under its name, its hello
	// hands the unit back before the lease (10 s) runs out.
	helloAs(t, srv.URL, "peer")
	leaseAs(t, srv.URL, srv.id, "peer")
	if u := leaseAs(t, srv.URL, srv.id, "late"); u.Status != UnitWait {
		t.Fatalf("second asker: status %d, want wait while peer holds the unit", u.Status)
	}
	if h := helloAs(t, srv.URL, "peer"); h.Status != HelloGranted {
		t.Fatalf("restarted peer's hello: status %d, want granted", h.Status)
	}
	if p := campaignStatus(t, srv); p.Leases != 0 || p.Reassignments != 0 {
		t.Fatalf("after the restarted peer's hello: %d leases outstanding, %d reassignments; want its lease returned, not expired",
			p.Leases, p.Reassignments)
	}

	// The peer runs the whole campaign and leaves while "late" rebuilds;
	// the service drains once the campaign is over, as ServeScan's does.
	u := leaseAs(t, srv.URL, srv.id, "peer")
	submitAs(t, srv.URL, srv.id, "peer", u, outcomes)
	if _, err := srv.wait(); err != nil {
		t.Fatal(err)
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		srv.svc.Shutdown()
	}()
	defer func() { <-drained }()
	waitFor(t, "the drain to start", func() bool {
		var st struct {
			Draining bool `json:"draining"`
		}
		getJSON(t, srv.URL+"/v1/status", &st)
		return st.Draining
	})
	if h := helloAs(t, srv.URL, "peer"); h.Status != HelloShutdown || h.Spec != nil {
		t.Fatalf("hello of a finished campaign: %+v, want a bare shutdown", h)
	}
	if joined(t, srv) == 0 {
		t.Fatal("the fleet drained before the handshaken worker fetched its done notice")
	}
	if u := leaseAs(t, srv.URL, srv.id, "late"); u.Status != UnitDone {
		t.Fatalf("late worker's lease: status %d, want UnitDone", u.Status)
	}
	left := time.Now()
	helloAs(t, srv.URL, "late")
	if joined(t, srv) != 0 || time.Since(left) > prompt {
		t.Error("the fleet must be drained once the handshaken worker has left")
	}
	if h := helloAs(t, srv.URL, "after"); h.Status != HelloShutdown || len(campaignStatus(t, srv).Workers) != 2 {
		t.Errorf("hello after the end: status %d, workers %+v; want dismissed without joining", h.Status, campaignStatus(t, srv).Workers)
	}
}
