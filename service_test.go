package faultspace

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faultspace/internal/cluster"
	"faultspace/internal/leakcheck"
	"faultspace/internal/progs"
)

// startCampaignService runs ServeCampaigns on a loopback port for the
// life of the test.
func startCampaignService(t testing.TB, opts CampaignServiceOptions) (addr string) {
	t.Helper()
	intr := make(chan struct{})
	listening := make(chan string, 1)
	done := make(chan error, 1)
	opts.Interrupt = intr
	opts.OnListen = func(a string) { listening <- a }
	go func() { done <- ServeCampaigns("127.0.0.1:0", opts) }()
	select {
	case addr = <-listening:
	case err := <-done:
		t.Fatalf("ServeCampaigns: %v", err)
	}
	t.Cleanup(func() {
		close(intr)
		if err := <-done; err != nil {
			t.Errorf("ServeCampaigns: %v", err)
		}
	})
	return addr
}

// TestServeCampaignsDismissesParkedWorkers is the service's half of the
// drain contract (ServeScan's is TestServeScanDismissesEveryWorker): three
// external workers sit parked in their hellos when the service is told to
// drain; each has its shutdown answer before the listener closes and
// returns nil — none meets a closed port and retries its way to
// ErrCoordinatorUnreachable.
func TestServeCampaignsDismissesParkedWorkers(t *testing.T) {
	reg := NewTelemetry()
	intr := make(chan struct{})
	listening := make(chan string, 1)
	served := make(chan error, 1)
	go func() {
		served <- ServeCampaigns("127.0.0.1:0", CampaignServiceOptions{
			Interrupt: intr, Telemetry: reg, OnListen: func(a string) { listening <- a },
		})
	}()
	var addr string
	select {
	case addr = <-listening:
	case err := <-served:
		t.Fatalf("ServeCampaigns: %v", err)
	}
	const workers = 3
	joined := make(chan error, workers)
	for i := 0; i < workers; i++ {
		go func(i int) {
			joined <- JoinScan(addr, JoinOptions{WorkerID: fmt.Sprint("w", i),
				BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond})
		}(i)
	}
	for deadline := time.Now().Add(5 * time.Second); reg.Gauge("fleet.handshake_held").Value() != workers; {
		if time.Now().After(deadline) {
			t.Fatal("the workers never parked")
		}
		time.Sleep(time.Millisecond)
	}
	close(intr)
	for i := 0; i < workers; i++ {
		if err := <-joined; err != nil {
			t.Errorf("a parked worker: %v, want nil: dismissed by the draining service", err)
		}
	}
	if err := <-served; err != nil {
		t.Errorf("ServeCampaigns: %v", err)
	}
}

// TestServeCampaignsAnswersHeldStatus: a WaitCampaign parked on its held
// status when the service is told to drain returns the campaign's end —
// cancelled — never a transport error: the drain answers every held
// status before the listener closes, as it dismisses every parked worker
// (TestServeCampaignsDismissesParkedWorkers).
func TestServeCampaignsAnswersHeldStatus(t *testing.T) {
	reg := NewTelemetry()
	intr := make(chan struct{})
	listening := make(chan string, 1)
	served := make(chan error, 1)
	go func() {
		served <- ServeCampaigns("127.0.0.1:0", CampaignServiceOptions{
			Interrupt: intr, Telemetry: reg, OnListen: func(a string) { listening <- a },
		})
	}()
	var addr string
	select {
	case addr = <-listening:
	case err := <-served:
		t.Fatalf("ServeCampaigns: %v", err)
	}
	// No fleet: the campaign runs unserved until the drain cancels it.
	info, err := SubmitCampaign(addr, hiProgram(t), ScanOptions{}, "")
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		info CampaignInfo
		err  error
	}
	waited := make(chan result, 1)
	go func() {
		info, err := WaitCampaign(addr, info.ID, 0, nil)
		waited <- result{info, err}
	}()
	for deadline := time.Now().Add(5 * time.Second); reg.Gauge("service.status_held").Value() != 1; {
		if time.Now().After(deadline) {
			t.Fatal("the status request never parked")
		}
		time.Sleep(time.Millisecond)
	}
	close(intr)
	r := <-waited
	if r.err != nil || r.info.State != "cancelled" {
		t.Errorf("WaitCampaign across the drain: state %q, err %v; want cancelled, no error", r.info.State, r.err)
	}
	if err := <-served; err != nil {
		t.Errorf("ServeCampaigns: %v", err)
	}
}

// TestServeCampaignsDrainsLocalWorkers: an interrupted ServeCampaigns
// drains before it lets go of its local workers. Told shutdown at their
// next lease, they say hello once more — their exit notice — and are
// dismissed, so the service returns in the round trips that takes, not
// after 2×LeaseTTL waiting for workers it has killed itself; and the
// local worker ends with ErrCoordinatorShutdown, its campaign cut short,
// not ErrInterrupted.
func TestServeCampaignsDrainsLocalWorkers(t *testing.T) {
	const ttl = 5 * time.Second
	spec, err := progs.Resolve("sync2", progs.Sizes{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := spec.Hardened()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var lines []string
	intr := make(chan struct{})
	listening := make(chan string, 1)
	served := make(chan error, 1)
	go func() {
		served <- ServeCampaigns("127.0.0.1:0", CampaignServiceOptions{
			LeaseTTL:     ttl,
			LocalWorkers: 1,
			// One slow executor keeps the campaign running into the drain.
			WorkerOptions: JoinOptions{Workers: 1, Strategy: StrategyRerun},
			Interrupt:     intr,
			OnListen:      func(a string) { listening <- a },
			Logf: func(format string, args ...any) {
				mu.Lock()
				lines = append(lines, fmt.Sprintf(format, args...))
				mu.Unlock()
			},
		})
	}()
	var addr string
	select {
	case addr = <-listening:
	case err := <-served:
		t.Fatalf("ServeCampaigns: %v", err)
	}
	info, err := SubmitCampaign(addr, prog, ScanOptions{}, "")
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); info.Done == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the local worker never merged a unit")
		}
		time.Sleep(time.Millisecond)
		if info, err = CampaignState(addr, info.ID); err != nil {
			t.Fatal(err)
		}
	}
	if info.Terminal() {
		t.Fatalf("the campaign ended %s before the interrupt", info.State)
	}
	interrupted := time.Now()
	close(intr)
	if err := <-served; err != nil {
		t.Errorf("ServeCampaigns: %v", err)
	}
	took := time.Since(interrupted)
	t.Logf("ServeCampaigns returned %v after its interrupt", took)
	if took >= ttl {
		t.Errorf("ServeCampaigns returned %v after its interrupt, want well under the %v lease", took, ttl)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := "faultspace: local worker 0: " + ErrCoordinatorShutdown.Error(); !slices.Contains(lines, want) {
		t.Errorf("no %q among the log lines:\n%s", want, strings.Join(lines, "\n"))
	}
}

// sortProgram is a small sort1.
func sortProgram(t testing.TB) *Program {
	t.Helper()
	p, err := progs.Sort1(6).Baseline()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestHitSimulatesNothing: the submission of an archived campaign is
// answered from the archive without the client simulating anything. The
// proof is a golden-run budget of one cycle, in which no golden run of
// sort1 halts: it is not part of the campaign identity, so the answer is
// the archived report, its every class counted.
func TestHitSimulatesNothing(t *testing.T) {
	dir := t.TempDir()
	addr := startCampaignService(t, CampaignServiceOptions{ArchiveDir: dir, LocalWorkers: 1})
	prog := sortProgram(t)
	c, err := prepare(prog, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := len(c.space.Classes)
	info, err := SubmitCampaign(addr, prog, ScanOptions{}, "")
	if err != nil {
		t.Fatal(err)
	}
	if info, err = WaitCampaign(addr, info.ID, 0, nil); err != nil || info.State != "done" || info.Cached {
		t.Fatalf("live run: state %s, cached %v, err %v; want done, not cached", info.State, info.Cached, err)
	}
	// A service without workers over the same archive.
	hit, err := SubmitCampaign(startCampaignService(t, CampaignServiceOptions{ArchiveDir: dir}),
		prog, ScanOptions{MaxGoldenCycles: 1}, "")
	if err != nil {
		t.Fatal(err)
	}
	if hit.ID != info.ID || !hit.Cached || hit.State != "done" || hit.Done != want || hit.Total != want {
		t.Errorf("hit: id %.12s state %s cached %v done/total %d/%d; want id %.12s, done from the archive, %d/%d",
			hit.ID, hit.State, hit.Cached, hit.Done, hit.Total, info.ID, want, want)
	}
}

// TestGoldenFailureFailsCampaign: the golden run is the service's, so a
// miss whose golden run does not halt within its budget is admitted and
// ends failed with the trace error, and nothing is archived.
func TestGoldenFailureFailsCampaign(t *testing.T) {
	dir := t.TempDir()
	addr := startCampaignService(t, CampaignServiceOptions{ArchiveDir: dir})
	info, err := SubmitCampaign(addr, sortProgram(t), ScanOptions{MaxGoldenCycles: 1}, "")
	if err != nil {
		t.Fatal(err)
	}
	if info, err = WaitCampaign(addr, info.ID, 0, nil); err != nil {
		t.Fatal(err)
	}
	if info.State != "failed" || !strings.Contains(info.Error, "trace: golden run") || !strings.Contains(info.Error, "did not halt within 1 cycles") {
		t.Errorf("state %s, error %q; want failed with the golden run's trace error", info.State, info.Error)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("archive directory holds %d entries (%v), want none", len(entries), err)
	}
}

func hiProgram(t testing.TB) *Program {
	t.Helper()
	p, err := progs.Hi().Baseline()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSubmitToReportLatency is the hand-off path end to end: an idle
// loopback service with one local worker, three small campaigns 20 ms
// apart. No step waits out a timer — the idle worker's handshake, the
// client's status request — so a campaign is done in a few milliseconds
// (logged). What is asserted is what only a timer put back can violate:
// an idle poll costs every campaign most of its 200 ms, so the median of
// the three must stay under half of that, which one slow campaign on a
// loaded machine cannot move.
func TestSubmitToReportLatency(t *testing.T) {
	addr := startCampaignService(t, CampaignServiceOptions{LocalWorkers: 1})
	prog := hiProgram(t)
	var took []time.Duration
	for i := 0; i < 3; i++ {
		time.Sleep(20 * time.Millisecond)
		// Distinct timeout budgets make distinct campaign identities.
		opts := ScanOptions{TimeoutFactor: 2 + float64(i)}
		start := time.Now()
		info, err := SubmitCampaign(addr, prog, opts, "")
		if err != nil {
			t.Fatal(err)
		}
		if info.Cached || info.Terminal() {
			t.Fatalf("campaign %d: admitted as %s (cached %v), want a live run", i, info.State, info.Cached)
		}
		if info, err = WaitCampaign(addr, info.ID, 0, nil); err != nil {
			t.Fatal(err)
		}
		took = append(took, time.Since(start))
		if info.State != "done" {
			t.Fatalf("campaign %d ended %s: %s", i, info.State, info.Error)
		}
		got, err := CampaignReport(addr, info.ID)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Scan(prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertSameOutcomes(t, "service vs local", want, got)
	}
	t.Logf("submission to done: %v", took)
	sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
	if took[1] > cluster.AskSpacing/2 {
		t.Errorf("the median campaign took %v from submission to done, want under %v: a timed wait is back on the path",
			took[1], cluster.AskSpacing/2)
	}
}

// TestWaitCampaignReturnsAtCompletion: WaitCampaign with the default
// spacing returns as the campaign ends (how long after is logged), not
// at the next multiple of a 500 ms poll interval — which, with the
// campaign ending 50 ms into the wait, is 450 ms late.
func TestWaitCampaignReturnsAtCompletion(t *testing.T) {
	// No workers and one active slot: the first campaign runs unserved,
	// the second stays queued, and cancelling a queued campaign ends it
	// before the cancel request is answered.
	addr := startCampaignService(t, CampaignServiceOptions{MaxActive: 1})
	prog := hiProgram(t)
	if _, err := SubmitCampaign(addr, prog, ScanOptions{TimeoutFactor: 2}, ""); err != nil {
		t.Fatal(err)
	}
	queued, err := SubmitCampaign(addr, prog, ScanOptions{TimeoutFactor: 3}, "")
	if err != nil {
		t.Fatal(err)
	}
	if queued.State != "queued" {
		t.Fatalf("second campaign is %s, want queued", queued.State)
	}
	type result struct {
		info CampaignInfo
		err  error
		at   time.Time
	}
	waited := make(chan result, 1)
	go func() {
		info, err := WaitCampaign(addr, queued.ID, 0, nil)
		waited <- result{info, err, time.Now()}
	}()
	time.Sleep(50 * time.Millisecond) // well inside the first 500 ms spacing
	resp, err := http.Post(normalizeURL(addr)+"/v1/campaigns/"+queued.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ended := time.Now()
	select {
	case r := <-waited:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.info.State != "cancelled" {
			t.Errorf("WaitCampaign returned state %s, want cancelled", r.info.State)
		}
		late := r.at.Sub(ended)
		t.Logf("WaitCampaign returned %v after the campaign ended", late)
		if late > 250*time.Millisecond {
			t.Errorf("WaitCampaign returned %v after the campaign ended: it waited out a poll interval", late)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitCampaign did not return")
	}
}

// TestWaitCampaignKeepsSpacingWithoutHold: against a service that
// ignores ?wait= and answers at once, WaitCampaign asks no more often
// than the polling client did — one request per spacing.
func TestWaitCampaignKeepsSpacingWithoutHold(t *testing.T) {
	const spacing = 20 * time.Millisecond
	var asks atomic.Int32
	var unheld atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("wait") == "" {
			unheld.Add(1)
		}
		state := "running"
		if asks.Add(1) > 3 {
			state = "done"
		}
		json.NewEncoder(w).Encode(CampaignInfo{ID: "c", State: state})
	}))
	defer srv.Close()

	start := time.Now()
	info, err := WaitCampaign(srv.URL, "c", spacing, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != "done" {
		t.Errorf("state %s, want done", info.State)
	}
	if got := asks.Load(); got != 4 {
		t.Errorf("%d requests for three running answers and a done one, want 4", got)
	}
	if took := time.Since(start); took < 3*spacing {
		t.Errorf("four asks in %v: early answers must be spaced %v apart", took, spacing)
	}
	if unheld.Load() != 0 {
		t.Errorf("%d status requests carried no ?wait=", unheld.Load())
	}
}

// TestInterruptReleasesParkedWaitCampaign: a WaitCampaign whose request
// is parked at the service returns as interrupt closes (the stub below
// never answers, so the delay, which is logged, is the cancellation's
// own) and leaves no goroutine behind.
func TestInterruptReleasesParkedWaitCampaign(t *testing.T) {
	http.DefaultClient.CloseIdleConnections()
	settled := leakcheck.Goroutines(t)
	parked := make(chan struct{}, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parked <- struct{}{}
		<-r.Context().Done() // a hold that only the client's departure ends
	}))
	defer srv.Close()

	intr := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := WaitCampaign(strings.TrimPrefix(srv.URL, "http://"), "c", 0, intr)
		done <- err
	}()
	<-parked
	closed := time.Now()
	close(intr)
	select {
	case err := <-done:
		if !errors.Is(err, ErrInterrupted) {
			t.Errorf("WaitCampaign: %v, want ErrInterrupted", err)
		}
		d := time.Since(closed)
		t.Logf("WaitCampaign returned %v after the interrupt", d)
		if d > time.Second {
			t.Errorf("WaitCampaign returned %v after the interrupt, want at once", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a parked status request delayed the interrupt")
	}
	srv.Close()
	http.DefaultClient.CloseIdleConnections()
	settled()
}
