package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"faultspace/internal/campaign"
	"faultspace/internal/cluster"
	"faultspace/internal/leakcheck"
	"faultspace/internal/telemetry"
)

// askHandshake posts one hello with the given query ("" or
// "?wait=...") and returns the answer, the HTTP status and how long the
// service took.
func askHandshake(t *testing.T, url, query string) (cluster.HelloReply, int, time.Duration) {
	t.Helper()
	start := time.Now()
	resp, err := http.Post(url+"/v1/handshake"+query, "application/octet-stream",
		bytes.NewReader(cluster.EncodeHello(cluster.Hello{WorkerID: "raw"})))
	if err != nil {
		t.Error(err)
		return cluster.HelloReply{}, 0, 0
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	took := time.Since(start)
	if err != nil {
		t.Error(err)
		return cluster.HelloReply{}, 0, took
	}
	if resp.StatusCode != http.StatusOK {
		return cluster.HelloReply{}, resp.StatusCode, took
	}
	h, err := cluster.DecodeHelloReply(body)
	if err != nil {
		t.Error(err)
	}
	return h, resp.StatusCode, took
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

// parkHandshake starts a held hello in the background and returns
// once the service reports it parked.
func parkHandshake(t *testing.T, reg *telemetry.Registry, url string) <-chan cluster.HelloReply {
	t.Helper()
	got := make(chan cluster.HelloReply, 1)
	go func() {
		h, _, _ := askHandshake(t, url, "?wait=20s")
		got <- h
	}()
	waitFor(t, "the handshake to park", func() bool { return reg.Gauge("fleet.handshake_held").Value() == 1 })
	return got
}

func helloWithin(t *testing.T, got <-chan cluster.HelloReply, since time.Time, want uint8) cluster.HelloReply {
	t.Helper()
	select {
	case h := <-got:
		d := time.Since(since)
		t.Logf("parked handshake answered %v after the event", d)
		if d > prompt {
			t.Errorf("parked handshake answered %v after the event, want at once", d)
		}
		if h.Status != want {
			t.Errorf("parked handshake answered status %d, want %d", h.Status, want)
		}
		return h
	case <-time.After(5 * time.Second):
		t.Fatal("parked handshake was not released")
		return cluster.HelloReply{}
	}
}

// TestHeldHandshake: a hello without ?wait= on an idle service is
// answered cluster.HelloWait at once, as ever. With it the request parks: a
// submission releases it with cluster.HelloGranted, a drain with cluster.HelloShutdown,
// each at once, and Shutdown does not wait for the hold.
func TestHeldHandshake(t *testing.T) {
	t.Run("no wait answers at once", func(t *testing.T) {
		_, srv := startService(t, Options{})
		h, _, took := askHandshake(t, srv.URL, "")
		if h.Status != cluster.HelloWait || took > prompt {
			t.Errorf("unheld handshake: status %d after %v, want cluster.HelloWait at once", h.Status, took)
		}
	})

	t.Run("hold runs out", func(t *testing.T) {
		_, srv := startService(t, Options{})
		h, _, took := askHandshake(t, srv.URL, "?wait=60ms")
		if h.Status != cluster.HelloWait || took < 60*time.Millisecond || took > time.Second {
			t.Errorf("expired hold: status %d after %v, want cluster.HelloWait after the 60ms hold", h.Status, took)
		}
	})

	t.Run("malformed wait", func(t *testing.T) {
		_, srv := startService(t, Options{})
		if _, status, _ := askHandshake(t, srv.URL, "?wait=soon"); status != http.StatusBadRequest {
			t.Errorf("?wait=soon: HTTP %d, want 400", status)
		}
	})

	t.Run("submission", func(t *testing.T) {
		reg := telemetry.New()
		_, srv := startService(t, Options{Telemetry: reg})
		spec := testSpec(t, "hi", 0)
		got := parkHandshake(t, reg, srv.URL)
		if _, resp := submitSpec(t, srv.URL, spec, "alice"); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d", resp.StatusCode)
		}
		h := helloWithin(t, got, time.Now(), cluster.HelloGranted)
		if len(h.Spec) == 0 {
			t.Error("cluster.HelloGranted must carry the campaign's spec")
		}
		if reg.Gauge("fleet.handshake_held").Value() != 0 || reg.Histogram("fleet.handshake_hold").Count() != 1 {
			t.Errorf("hold metrics: held %d, holds %d; want 0 and 1",
				reg.Gauge("fleet.handshake_held").Value(), reg.Histogram("fleet.handshake_hold").Count())
		}
	})

	t.Run("shutdown", func(t *testing.T) {
		reg := telemetry.New()
		svc, srv := startService(t, Options{Telemetry: reg})
		got := parkHandshake(t, reg, srv.URL)
		event := time.Now()
		svc.Shutdown()
		if d := time.Since(event); d > prompt {
			t.Errorf("Shutdown took %v: it must not wait out a parked handshake", d)
		}
		helloWithin(t, got, event, cluster.HelloShutdown)
	})
}

// TestHeldStatus: GET /v1/campaigns/<id>?wait= parks until the campaign
// reaches a terminal state; without it the current state comes at once.
func TestHeldStatus(t *testing.T) {
	// No fleet: the campaign runs unserved until cancelled.
	_, srv := startService(t, Options{})
	st, _ := submitSpec(t, srv.URL, testSpec(t, "hi", 0), "alice")

	get := func(query string) (CampaignStatus, time.Duration) {
		start := time.Now()
		resp, err := http.Get(srv.URL + "/v1/campaigns/" + st.ID + query)
		if err != nil {
			t.Error(err)
			return CampaignStatus{}, 0
		}
		defer resp.Body.Close()
		var got CampaignStatus
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Error(err)
		}
		return got, time.Since(start)
	}
	if got, took := get(""); got.State != StateRunning || took > prompt {
		t.Errorf("unheld status: %s after %v, want running at once", got.State, took)
	}
	if got, took := get("?wait=60ms"); got.State != StateRunning || took < 60*time.Millisecond {
		t.Errorf("expired hold: %s after %v, want running after the 60ms hold", got.State, took)
	}

	type answer struct {
		st CampaignStatus
		at time.Time
	}
	held := make(chan answer, 1)
	go func() {
		got, _ := get("?wait=20s")
		held <- answer{got, time.Now()}
	}()
	time.Sleep(30 * time.Millisecond) // let it park; an early cancel only makes the test weaker
	select {
	case a := <-held:
		t.Fatalf("held status answered %s while the campaign was running", a.st.State)
	default:
	}
	resp, err := http.Post(srv.URL+"/v1/campaigns/"+st.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// The cancel answer does not wait for the terminal state; waitDone does.
	done := waitDone(t, srv.URL, st.ID)
	seen := time.Now()
	select {
	case a := <-held:
		if a.st.State != done.State || a.st.State != StateCancelled {
			t.Errorf("held status answered %s, want %s", a.st.State, StateCancelled)
		}
		if late := a.at.Sub(seen); late > prompt {
			t.Errorf("held status answered %v after the campaign was seen cancelled", late)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("held status was not released by the campaign ending")
	}
}

// TestInterruptReleasesParkedJoinFleet: a worker parked on a held
// handshake stops as its Context is cancelled, and leaves no goroutine
// behind.
func TestInterruptReleasesParkedJoinFleet(t *testing.T) {
	settled := leakcheck.Goroutines(t)
	reg := telemetry.New()
	svc, err := New(Options{Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	client := &http.Client{Transport: &http.Transport{}}
	ctx, intr := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- cluster.Join(srv.URL, cluster.WorkerOptions{WorkerID: "parked", Context: ctx, Client: client}, nil)
	}()
	waitFor(t, "the worker to park", func() bool { return reg.Gauge("fleet.handshake_held").Value() == 1 })

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
		t.Fatal("a parked handshake delayed the interrupt")
	}
	waitFor(t, "the service to notice the worker is gone", func() bool {
		return reg.Gauge("fleet.handshake_held").Value() == 0
	})
	client.CloseIdleConnections()
	srv.Close()
	settled()
}

// TestHoldHalvesClientTimeout: a client with a timeout asks for half of
// it, so the service answers cluster.HelloWait before the client gives up and an
// idle hold never burns the failure budget.
func TestHoldHalvesClientTimeout(t *testing.T) {
	reg := telemetry.New()
	_, srv := startService(t, Options{Telemetry: reg})
	client := &http.Client{Timeout: 600 * time.Millisecond, Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	var failed bool
	ctx, intr := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- cluster.Join(srv.URL, cluster.WorkerOptions{WorkerID: "timed", Context: ctx, Client: client,
			Logf: func(string, ...any) { failed = true }}, nil)
	}()
	// Three holds of 300 ms each run out and are re-asked.
	waitFor(t, "three holds to run out", func() bool { return reg.Histogram("fleet.handshake_hold").Count() >= 3 })
	intr()
	if err := <-done; !errors.Is(err, campaign.ErrInterrupted) {
		t.Errorf("Join: %v, want ErrInterrupted", err)
	}
	if failed {
		t.Error("an idle hold was logged as a handshake failure")
	}
}

// TestFinishedCampaignIsNotReassigned: once a campaign's last outcome is
// merged there is nothing left to hand out, so a worker told "done" must
// park on its next handshake — not be granted the same campaign over and
// over (rebuilding it each time) while the service archives the report.
func TestFinishedCampaignIsNotReassigned(t *testing.T) {
	svc, srv := startService(t, Options{Dir: t.TempDir()})
	var joins atomic.Int32
	ctx, intr := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- cluster.Join(srv.URL, cluster.WorkerOptions{WorkerID: "w", Context: ctx,
			Logf: func(format string, _ ...any) {
				if strings.Contains(format, "joined") {
					joins.Add(1)
				}
			}}, nil)
	}()
	const campaigns = 3
	for i := 0; i < campaigns; i++ {
		st, _ := submitSpec(t, srv.URL, testSpec(t, "bin_sem2", 2+float64(i)), "alice")
		if st := waitDone(t, srv.URL, st.ID); st.State != StateDone {
			t.Fatalf("campaign %d ended %s", i, st.State)
		}
	}
	svc.Shutdown()
	intr()
	<-done
	// One join per campaign; one more is tolerated for a handshake that
	// slips in between the last merge and the service noticing it.
	if got := joins.Load(); got > campaigns+1 {
		t.Errorf("the worker joined %d times for %d campaigns", got, campaigns)
	}
}
