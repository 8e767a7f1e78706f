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
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"faultspace/internal/archive"
	"faultspace/internal/campaign"
	"faultspace/internal/cluster"
	"faultspace/internal/machine"
	"faultspace/internal/progs"
	"faultspace/internal/pruning"
	"faultspace/internal/telemetry"
)

const testMaxGolden = 1 << 22

// testTarget prepares a small benchmark campaign target.
func testTarget(t testing.TB, name string) campaign.Target {
	t.Helper()
	spec, err := progs.Resolve(name, progs.Sizes{
		BinSemRounds: 1, SyncRounds: 1, SyncBufBytes: 16,
		ClockTicks: 2, ClockPeriod: 32, MboxMessages: 2,
		PreemptWork: 8, PreemptPeriod: 24, SortElements: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := spec.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	return campaign.Target{
		Name:  prog.Name,
		Code:  prog.Code,
		Image: prog.Image,
		Mach: machine.Config{
			RAMSize:     prog.RAMSize,
			TimerPeriod: prog.TimerPeriod,
			TimerVector: prog.TimerVector,
		},
	}
}

// testSpec builds a submission spec. Distinct timeout factors yield
// distinct campaign identities for the same program, which several tests
// use to mint cheap unique campaigns.
func testSpec(t testing.TB, name string, factor float64) cluster.Spec {
	t.Helper()
	tgt := testTarget(t, name)
	cfg := campaign.Config{TimeoutFactor: factor}
	_, fs, err := tgt.PrepareSpace(pruning.SpaceMemory, testMaxGolden)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := cluster.NewSpec(tgt, pruning.SpaceMemory, cfg, testMaxGolden, uint64(len(fs.Classes)))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// startService serves a Service over a loopback listener.
func startService(t testing.TB, opts Options) (*Service, *httptest.Server) {
	t.Helper()
	if opts.LeaseTTL == 0 {
		opts.LeaseTTL = 2 * time.Second
	}
	svc, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	return svc, srv
}

// startFleet attaches n in-process fleet workers wired like favserve's
// local workers: per-campaign telemetry via the service hook. Returned
// stop drains them (and is registered as cleanup).
func startFleet(t testing.TB, svc *Service, url string, n int) (stop func()) {
	t.Helper()
	ctx, intr := context.WithCancel(context.Background())
	var once sync.Once
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cluster.Join(url, cluster.WorkerOptions{
				WorkerID: fmt.Sprintf("fleet%d", i),
				Context:  ctx,
			}, func(spec cluster.Spec) *telemetry.Registry {
				return svc.CampaignTelemetry(spec.Identity)
			})
		}(i)
	}
	stop = func() {
		once.Do(intr)
		wg.Wait()
	}
	t.Cleanup(stop)
	return stop
}

// submitSpec POSTs a spec to the service and decodes the reply.
func submitSpec(t testing.TB, url string, spec cluster.Spec, tenant string) (CampaignStatus, *http.Response) {
	t.Helper()
	u := url + "/v1/campaigns"
	if tenant != "" {
		u += "?tenant=" + tenant
	}
	resp, err := http.Post(u, "application/octet-stream", bytes.NewReader(cluster.EncodeSpec(spec)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var st CampaignStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("submit reply %q: %v", body, err)
		}
	}
	return st, resp
}

func waitDone(t testing.TB, url, id string) CampaignStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url + "/v1/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st CampaignStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case StateDone, StateCancelled, StateFailed:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s stuck in state %s", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func fetchReport(t testing.TB, url, id string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/v1/campaigns/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report: HTTP %d: %s", resp.StatusCode, body)
	}
	return body
}

// localReport runs the same campaign locally and encodes its archive —
// the reference bytes every service path must reproduce.
func localReport(t testing.TB, name string, factor float64) []byte {
	t.Helper()
	tgt := testTarget(t, name)
	golden, fs, err := tgt.PrepareSpace(pruning.SpaceMemory, testMaxGolden)
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.FullScan(tgt, golden, fs, campaign.Config{TimeoutFactor: factor})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := archive.Encode(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestInvariant12ArchiveHit is the differential proof of invariant 12:
// a campaign executed on the fleet yields a report byte-identical to a
// local scan; re-submitting the identical campaign to a fresh service
// over the same archive directory is answered from the archive with the
// same bytes and zero experiments executed.
func TestInvariant12ArchiveHit(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t, "hi", 0)
	want := localReport(t, "hi", 0)

	svc, srv := startService(t, Options{Dir: dir})
	startFleet(t, svc, srv.URL, 1)
	st, resp := submitSpec(t, srv.URL, spec, "alice")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	st = waitDone(t, srv.URL, st.ID)
	if st.State != StateDone || st.Cached {
		t.Fatalf("first run: state %s cached %v", st.State, st.Cached)
	}
	live := fetchReport(t, srv.URL, st.ID)
	if !bytes.Equal(live, want) {
		t.Fatal("fleet-executed report differs from local scan (invariant 8/12 broken)")
	}
	if got := svc.CampaignTelemetry(spec.Identity).Counter("scan.experiments").Value(); got == 0 {
		t.Error("live run recorded no experiments — telemetry wiring broken")
	}
	svc.Shutdown()

	// A fresh service over the same archive: the duplicate submission
	// must complete instantly, serve identical bytes, and execute
	// nothing.
	svc2, srv2 := startService(t, Options{Dir: dir})
	st2, resp2 := submitSpec(t, srv2.URL, spec, "bob")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: HTTP %d", resp2.StatusCode)
	}
	if st2.State != StateDone || !st2.Cached {
		t.Fatalf("resubmit: state %s cached %v, want done from archive", st2.State, st2.Cached)
	}
	cached := fetchReport(t, srv2.URL, st2.ID)
	if !bytes.Equal(cached, live) {
		t.Fatal("archived report is not byte-identical to the live scan (invariant 12 broken)")
	}
	if got := svc2.CampaignTelemetry(spec.Identity).Counter("scan.experiments").Value(); got != 0 {
		t.Errorf("archive hit executed %d experiments, want 0", got)
	}
	// Idempotent re-submission to the same live service short-circuits
	// on the in-memory entry too.
	st3, resp3 := submitSpec(t, srv2.URL, spec, "carol")
	if resp3.StatusCode != http.StatusOK || st3.State != StateDone {
		t.Fatalf("idempotent resubmit: HTTP %d state %s", resp3.StatusCode, st3.State)
	}
	svc2.Shutdown()
}

// TestServiceCountsClasses: the service counts a campaign's classes
// itself. A submission announcing none is running with the count of the
// service's own build as its total; the archive hit of the same campaign
// has the archived report's count, whatever its submission announced.
func TestServiceCountsClasses(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t, "hi", 0)
	want := int(spec.Classes)
	spec.Classes = 0

	// No fleet yet: the campaign runs unserved.
	svc, srv := startService(t, Options{Dir: dir})
	st, resp := submitSpec(t, srv.URL, spec, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	waitFor(t, "the campaign's build", func() bool {
		getServiceJSON(t, srv.URL+"/v1/campaigns/"+st.ID, &st)
		return st.Total != 0
	})
	if st.State != StateRunning || st.Total != want || st.Done != 0 {
		t.Errorf("running miss: state %s, done/total %d/%d, want running, 0/%d", st.State, st.Done, st.Total, want)
	}
	startFleet(t, svc, srv.URL, 1)
	if st = waitDone(t, srv.URL, st.ID); st.State != StateDone || st.Done != want || st.Total != want {
		t.Errorf("finished miss: state %s, done/total %d/%d, want done, %d/%d", st.State, st.Done, st.Total, want, want)
	}
	svc.Shutdown()

	for _, announced := range []uint64{0, uint64(want) + 1} {
		spec.Classes = announced
		svc, srv := startService(t, Options{Dir: dir})
		st, _ := submitSpec(t, srv.URL, spec, "")
		if !st.Cached || st.Done != want || st.Total != want {
			t.Errorf("hit announcing %d: cached %v, done/total %d/%d, want cached, %d/%d",
				announced, st.Cached, st.Done, st.Total, want, want)
		}
		svc.Shutdown()
	}
}

// TestArchiveWriteFailureFailsCampaign: a report the store could not
// write must not be served as done — it would live in memory until the
// next restart and then be gone. The campaign fails with the store's
// error, nothing is archived, and a later campaign still runs.
func TestArchiveWriteFailureFailsCampaign(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	dir := t.TempDir()
	svc, srv := startService(t, Options{Dir: dir})
	startFleet(t, svc, srv.URL, 1)
	spec := testSpec(t, "hi", 0)
	// The temp file Put writes through lands on a full device.
	if err := os.Symlink("/dev/full", svc.Archive().path(spec.Identity)+".tmp"); err != nil {
		t.Fatal(err)
	}
	st, resp := submitSpec(t, srv.URL, spec, "alice")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	st = waitDone(t, srv.URL, st.ID)
	if st.State != StateFailed || !strings.Contains(st.Error, "archive") {
		t.Errorf("campaign ended %s (error %q), want failed with the archive error", st.State, st.Error)
	}
	if r, err := http.Get(srv.URL + "/v1/campaigns/" + st.ID + "/report"); err != nil {
		t.Fatal(err)
	} else if r.Body.Close(); r.StatusCode == http.StatusOK {
		t.Error("a campaign whose report was not archived still serves it")
	}
	if n := svc.Archive().Len(); n != 0 {
		t.Errorf("failed Put left %d archive entries", n)
	}
	next, resp := submitSpec(t, srv.URL, testSpec(t, "hi", 5), "alice")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("next submit: HTTP %d", resp.StatusCode)
	}
	if next = waitDone(t, srv.URL, next.ID); next.State != StateDone {
		t.Errorf("campaign after the failed one ended %s (%s)", next.State, next.Error)
	}
	svc.Shutdown()
}

// TestTwoTenantsConcurrent drives two distinct campaigns from different
// tenants through one shared fleet concurrently; both must complete with
// reports byte-identical to their local scans. Run under -race via
// `make race-service`, this is the multi-campaign concurrency proof.
func TestTwoTenantsConcurrent(t *testing.T) {
	specA := testSpec(t, "hi", 0)
	specB := testSpec(t, "bin_sem2", 0)
	if specA.Identity == specB.Identity {
		t.Fatal("test needs distinct campaigns")
	}
	svc, srv := startService(t, Options{MaxActive: 2})
	startFleet(t, svc, srv.URL, 2)

	stA, respA := submitSpec(t, srv.URL, specA, "alice")
	stB, respB := submitSpec(t, srv.URL, specB, "bob")
	if respA.StatusCode != http.StatusAccepted || respB.StatusCode != http.StatusAccepted {
		t.Fatalf("submits: HTTP %d, %d", respA.StatusCode, respB.StatusCode)
	}
	doneA := waitDone(t, srv.URL, stA.ID)
	doneB := waitDone(t, srv.URL, stB.ID)
	if doneA.State != StateDone || doneB.State != StateDone {
		t.Fatalf("states %s/%s, want done/done", doneA.State, doneB.State)
	}
	if got := fetchReport(t, srv.URL, stA.ID); !bytes.Equal(got, localReport(t, "hi", 0)) {
		t.Error("tenant alice's report differs from a local scan")
	}
	if got := fetchReport(t, srv.URL, stB.ID); !bytes.Equal(got, localReport(t, "bin_sem2", 0)) {
		t.Error("tenant bob's report differs from a local scan")
	}
	svc.Shutdown()
}

// TestCounterIsolation (the /v1/status satellite): with several
// campaigns sharing one process, each campaign's scan/memo counters
// must be its own, not a process-global aggregate.
func TestCounterIsolation(t *testing.T) {
	specA := testSpec(t, "hi", 0)
	specB := testSpec(t, "bin_sem2", 0)
	svc, srv := startService(t, Options{MaxActive: 2})
	startFleet(t, svc, srv.URL, 2)
	stA, _ := submitSpec(t, srv.URL, specA, "alice")
	stB, _ := submitSpec(t, srv.URL, specB, "bob")
	waitDone(t, srv.URL, stA.ID)
	waitDone(t, srv.URL, stB.ID)

	expA := svc.CampaignTelemetry(specA.Identity).Counter("scan.experiments").Value()
	expB := svc.CampaignTelemetry(specB.Identity).Counter("scan.experiments").Value()
	if expA != specA.Classes {
		t.Errorf("campaign A counted %d experiments, want its own %d", expA, specA.Classes)
	}
	if expB != specB.Classes {
		t.Errorf("campaign B counted %d experiments, want its own %d", expB, specB.Classes)
	}

	// The same isolation must hold on the wire: /v1/status reports the
	// counters per campaign.
	resp, err := http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status struct {
		Campaigns []struct {
			ID        string `json:"id"`
			Telemetry *struct {
				Counters map[string]uint64 `json:"counters"`
			} `json:"telemetry"`
		} `json:"campaigns"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{
		hex.EncodeToString(specA.Identity[:]): specA.Classes,
		hex.EncodeToString(specB.Identity[:]): specB.Classes,
	}
	seen := 0
	for _, c := range status.Campaigns {
		if c.Telemetry == nil {
			t.Fatalf("campaign %s has no telemetry in /v1/status", c.ID)
		}
		if w, ok := want[c.ID]; ok {
			seen++
			if got := c.Telemetry.Counters["scan.experiments"]; got != w {
				t.Errorf("/v1/status campaign %.12s: scan.experiments %d, want %d", c.ID, got, w)
			}
		}
	}
	if seen != 2 {
		t.Fatalf("/v1/status listed %d of the 2 campaigns", seen)
	}
	svc.Shutdown()
}

// TestBackpressure: beyond MaxQueued, submissions get 429 + Retry-After.
func TestBackpressure(t *testing.T) {
	// No fleet: campaigns stay queued/running forever.
	_, srv := startService(t, Options{MaxActive: 1, MaxQueued: 1})
	for i, factor := range []float64{2, 3} {
		if _, resp := submitSpec(t, srv.URL, testSpec(t, "hi", factor), "t"); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, resp.StatusCode)
		}
	}
	// The first campaign moved to running, the second fills the queue;
	// the third must bounce.
	_, resp := submitSpec(t, srv.URL, testSpec(t, "hi", 4), "t")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 must carry a Retry-After hint")
	}
}

// TestCancelAndDrain: a queued campaign cancels cleanly; after Shutdown
// the service answers submissions with 503 and fleet handshakes with a
// shutdown notice.
func TestCancelAndDrain(t *testing.T) {
	svc, srv := startService(t, Options{MaxActive: 1})
	// No fleet: both campaigns are admitted, the second stays queued.
	st1, _ := submitSpec(t, srv.URL, testSpec(t, "hi", 2), "t")
	st2, _ := submitSpec(t, srv.URL, testSpec(t, "hi", 3), "t")

	resp, err := http.Post(srv.URL+"/v1/campaigns/"+st2.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var got CampaignStatus
	json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if got.State != StateCancelled {
		t.Fatalf("cancelled queued campaign reports %s", got.State)
	}

	done := make(chan struct{})
	go func() { svc.Shutdown(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("Shutdown did not drain")
	}
	if st := waitDone(t, srv.URL, st1.ID); st.State != StateCancelled {
		t.Errorf("running campaign after drain: %s, want cancelled", st.State)
	}

	_, resp2 := submitSpec(t, srv.URL, testSpec(t, "hi", 5), "t")
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: HTTP %d, want 503", resp2.StatusCode)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Error("503 must carry a Retry-After hint")
	}
	hello, err := http.Post(srv.URL+"/v1/handshake", "application/octet-stream",
		bytes.NewReader(cluster.EncodeHello(cluster.Hello{WorkerID: "late"})))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(hello.Body)
	hello.Body.Close()
	h, err := cluster.DecodeHelloReply(body)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != cluster.HelloShutdown {
		t.Errorf("fleet handshake while draining: status %d, want shutdown", h.Status)
	}
}

// TestServiceMethodRejection: every mutating service endpoint enforces
// POST, every read endpoint GET — 405 plus an Allow header otherwise.
func TestServiceMethodRejection(t *testing.T) {
	_, srv := startService(t, Options{})
	id := strings.Repeat("ab", 32)
	cases := []struct {
		path  string
		allow string
	}{
		{"/v1/handshake", "POST"},
		{"/v1/lease", "POST"},
		{"/v1/submit", "POST"},
		{"/v1/heartbeat", "POST"},
		{"/v1/campaigns", "GET, POST"},
		{"/v1/status", "GET"},
	}
	for _, tc := range cases {
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+tc.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("DELETE %s: HTTP %d, want 405", tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Errorf("DELETE %s: Allow %q, want %q", tc.path, got, tc.allow)
		}
	}
	// Campaign subpaths 405 too (not 404) once the campaign exists.
	st, _ := submitSpec(t, srv.URL, testSpec(t, "hi", 2), "t")
	for path, allow := range map[string]string{
		"/v1/campaigns/" + st.ID:             "GET",
		"/v1/campaigns/" + st.ID + "/report": "GET",
		"/v1/campaigns/" + st.ID + "/cancel": "POST",
	} {
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != allow {
			t.Errorf("DELETE %s: HTTP %d Allow %q, want 405 %q",
				path, resp.StatusCode, resp.Header.Get("Allow"), allow)
		}
	}
	_ = id
}

// TestUnknownWorkerIdentity: worker traffic for an unknown campaign is
// answered 409, mirroring the single-coordinator admission check.
func TestUnknownWorkerIdentity(t *testing.T) {
	_, srv := startService(t, Options{})
	var bogus [32]byte
	bogus[0] = 0xee
	resp, err := http.Post(srv.URL+"/v1/lease", "application/octet-stream",
		bytes.NewReader(cluster.EncodeLeaseRequest(cluster.LeaseRequest{Identity: bogus, WorkerID: "w"})))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("lease for unknown campaign: HTTP %d, want 409", resp.StatusCode)
	}
}

// TestFleetUnreachableGivesUp: a fleet worker whose service vanished
// for good stops asking after the failure budget instead of spinning on
// a dead address forever.
func TestFleetUnreachableGivesUp(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	srv.Close() // nothing listens here any more
	err := cluster.Join(srv.URL, cluster.WorkerOptions{
		BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
	}, nil)
	if !errors.Is(err, cluster.ErrUnreachable) {
		t.Fatalf("Join against a dead service: %v, want ErrUnreachable", err)
	}
}

// testSpecSpace is testSpec for an arbitrary fault space and attacker
// objective.
func testSpecSpace(t testing.TB, name string, kind pruning.SpaceKind, objective string) cluster.Spec {
	t.Helper()
	tgt := testTarget(t, name)
	obj, err := campaign.ObjectiveByName(objective)
	if err != nil {
		t.Fatal(err)
	}
	cfg := campaign.Config{Objective: obj}
	_, fs, err := tgt.PrepareSpace(kind, testMaxGolden)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := cluster.NewSpec(tgt, kind, cfg, testMaxGolden, uint64(len(fs.Classes)))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// localReportSpace is localReport for an arbitrary fault space and
// attacker objective.
func localReportSpace(t testing.TB, name string, kind pruning.SpaceKind, objective string) []byte {
	t.Helper()
	tgt := testTarget(t, name)
	obj, err := campaign.ObjectiveByName(objective)
	if err != nil {
		t.Fatal(err)
	}
	golden, fs, err := tgt.PrepareSpace(kind, testMaxGolden)
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.FullScan(tgt, golden, fs, campaign.Config{Objective: obj})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := archive.Encode(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFleetForkStrategy runs a fleet whose workers execute their leased
// units under the fork strategy: the service-produced report must stay
// byte-identical to a local scan (invariant 8/12 for the fourth
// strategy), and the campaign's own telemetry must show the fork path
// actually ran — children forked and golden-prefix cycles saved.
func TestFleetForkStrategy(t *testing.T) {
	spec := testSpec(t, "bin_sem2", 0)
	want := localReport(t, "bin_sem2", 0)

	svc, srv := startService(t, Options{})
	ctx, intr := context.WithCancel(context.Background())
	var once sync.Once
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cluster.Join(srv.URL, cluster.WorkerOptions{
			WorkerID: "fork-fleet",
			Context:  ctx,
			Strategy: campaign.StrategyFork,
		}, func(s cluster.Spec) *telemetry.Registry {
			return svc.CampaignTelemetry(s.Identity)
		})
	}()
	t.Cleanup(func() {
		once.Do(intr)
		wg.Wait()
	})

	st, resp := submitSpec(t, srv.URL, spec, "alice")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	st = waitDone(t, srv.URL, st.ID)
	if st.State != StateDone || st.Cached {
		t.Fatalf("state %s cached %v, want a live done run", st.State, st.Cached)
	}
	if got := fetchReport(t, srv.URL, st.ID); !bytes.Equal(got, want) {
		t.Fatal("fork-fleet report differs from local scan (invariant 8/12 broken)")
	}
	reg := svc.CampaignTelemetry(spec.Identity)
	if reg.Counter("fork.children").Value() == 0 {
		t.Error("fork.children = 0 — the fleet worker did not take the fork path")
	}
	if reg.Counter("fork.prefix_cycles_saved").Value() == 0 {
		t.Error("fork.prefix_cycles_saved = 0 — no golden prefix was shared across a batch")
	}
	svc.Shutdown()
}

// TestInvariant12ArchiveHitAttackSpaces replays the invariant-12 proof
// for the attack-style campaign types: a burst campaign under the
// corrupt objective and a plain instruction-skip campaign, each executed
// on the fleet (objective name riding the wire spec), must match the
// local scan byte-for-byte; the duplicate submission to a fresh service
// over the same archive is answered with zero experiments executed.
func TestInvariant12ArchiveHitAttackSpaces(t *testing.T) {
	cases := []struct {
		name      string
		kind      pruning.SpaceKind
		objective string
	}{
		{"burst2+corrupt", pruning.SpaceBurst2, "corrupt"},
		{"skip", pruning.SpaceSkip, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			spec := testSpecSpace(t, "bin_sem2", tc.kind, tc.objective)
			want := localReportSpace(t, "bin_sem2", tc.kind, tc.objective)

			svc, srv := startService(t, Options{Dir: dir})
			startFleet(t, svc, srv.URL, 2)
			st, resp := submitSpec(t, srv.URL, spec, "alice")
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: HTTP %d", resp.StatusCode)
			}
			st = waitDone(t, srv.URL, st.ID)
			if st.State != StateDone || st.Cached {
				t.Fatalf("first run: state %s cached %v", st.State, st.Cached)
			}
			if st.Objective != tc.objective {
				t.Errorf("status objective %q, want %q", st.Objective, tc.objective)
			}
			live := fetchReport(t, srv.URL, st.ID)
			if !bytes.Equal(live, want) {
				t.Fatal("fleet-executed report differs from local scan (invariant 8/12 broken)")
			}
			svc.Shutdown()

			svc2, srv2 := startService(t, Options{Dir: dir})
			st2, resp2 := submitSpec(t, srv2.URL, spec, "bob")
			if resp2.StatusCode != http.StatusOK {
				t.Fatalf("resubmit: HTTP %d", resp2.StatusCode)
			}
			if st2.State != StateDone || !st2.Cached {
				t.Fatalf("resubmit: state %s cached %v, want done from archive", st2.State, st2.Cached)
			}
			if !bytes.Equal(fetchReport(t, srv2.URL, st2.ID), live) {
				t.Fatal("archived report is not byte-identical to the live scan (invariant 12 broken)")
			}
			if got := svc2.CampaignTelemetry(spec.Identity).Counter("scan.experiments").Value(); got != 0 {
				t.Errorf("archive hit executed %d experiments, want 0", got)
			}
			svc2.Shutdown()
		})
	}
}

// TestResubmitAfterCancel: a cancelled campaign is not the last word on
// its identity. Submitted again it is admitted afresh (202) in the
// cancelled entry's place, runs, and its report is byte-identical to the
// local scan's; a running campaign stays idempotent.
func TestResubmitAfterCancel(t *testing.T) {
	spec := testSpec(t, "sort1", 0)
	want := localReport(t, "sort1", 0)
	svc, srv := startService(t, Options{})
	// No fleet yet: the campaign runs unserved until cancelled.
	st, resp := submitSpec(t, srv.URL, spec, "alice")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if again, resp := submitSpec(t, srv.URL, spec, "alice"); resp.StatusCode != http.StatusOK || again.State != StateRunning {
		t.Fatalf("resubmit while running: HTTP %d state %s, want the running campaign", resp.StatusCode, again.State)
	}
	cresp, err := http.Post(srv.URL+"/v1/campaigns/"+st.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if st := waitDone(t, srv.URL, st.ID); st.State != StateCancelled {
		t.Fatalf("cancelled campaign: %s", st.State)
	}

	startFleet(t, svc, srv.URL, 1)
	again, resp := submitSpec(t, srv.URL, spec, "alice")
	if resp.StatusCode != http.StatusAccepted || again.ID != st.ID {
		t.Fatalf("resubmit after the cancel: HTTP %d id %.12s, want 202 for %.12s", resp.StatusCode, again.ID, st.ID)
	}
	if again = waitDone(t, srv.URL, again.ID); again.State != StateDone {
		t.Fatalf("resubmitted campaign ended %s (%s)", again.State, again.Error)
	}
	if got := fetchReport(t, srv.URL, again.ID); !bytes.Equal(got, want) {
		t.Error("the resubmitted campaign's report differs from the local scan's")
	}
	var list []CampaignStatus
	getServiceJSON(t, srv.URL+"/v1/campaigns", &list)
	if len(list) != 1 || list[0].State != StateDone {
		t.Errorf("listed campaigns %+v, want the one, done, in the cancelled one's place", list)
	}
	svc.Shutdown()
}
