package cluster_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faultspace/internal/campaign"
	. "faultspace/internal/cluster"
	"faultspace/internal/leakcheck"
	"faultspace/internal/machine"
	"faultspace/internal/progs"
	"faultspace/internal/pruning"
	"faultspace/internal/service"
	"faultspace/internal/telemetry"
	"faultspace/internal/trace"
)

// The worker pipeline: while a unit scans, the next is asked for and the
// one before submitted. These tests order the worker's requests through
// its transport, so that each lands where the pipeline has to cope with
// it.

// tripper is a worker's HTTP transport written as a function.
type tripper func(*http.Request) (*http.Response, error)

func (f tripper) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// grants forwards a request and, when it is a lease ask answered with a
// unit, counts the grant in n and closes reached once there are at least
// want of them.
func grants(next http.RoundTripper, r *http.Request, n *atomic.Int32, want int32, reached func()) (*http.Response, error) {
	resp, err := next.RoundTrip(r)
	if err != nil || !strings.HasPrefix(r.URL.Path, "/v1/lease") {
		return resp, err
	}
	body, err := peek(resp)
	if err != nil {
		return nil, err
	}
	if u, err := DecodeWorkUnit(body); err == nil && u.Status == UnitGranted && n.Add(1) == want {
		reached()
	}
	return resp, nil
}

// sortCampaign prepares sort1 at the given size over the memory space:
// 4,608 classes at 12 elements, which one rerun executor scans in about
// 30 ms.
func sortCampaign(t testing.TB, elements int) (campaign.Target, *trace.Golden, *pruning.FaultSpace) {
	t.Helper()
	spec, err := progs.Resolve("sort1", progs.Sizes{SortElements: elements})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := spec.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	tgt := campaign.Target{Name: prog.Name, Code: prog.Code, Image: prog.Image, Mach: machine.Config{
		RAMSize: prog.RAMSize, TimerPeriod: prog.TimerPeriod, TimerVector: prog.TimerVector,
	}}
	golden, fs, err := tgt.PrepareSpace(pruning.SpaceMemory, MaxGolden)
	if err != nil {
		t.Fatal(err)
	}
	return tgt, golden, fs
}

// holdBound is how long a test transport holds a request for an event
// that the pipelined worker brings about and a serial one never does.
const holdBound = 10 * time.Second

// TestPipelineSubmitsBehindScan: the worker's first submission is held
// until it has been granted a third unit, which it asks for only once it
// scans the second: a worker that submits in series with its scans would
// wait out the hold. The report is still the local scan's.
func TestPipelineSubmitsBehindScan(t *testing.T) {
	tgt, golden, fs := SmallCampaign(t, "bin_sem2")
	srv := serveCampaign(t, tgt, golden, fs, campaign.Config{}, service.Options{UnitSize: 8}, nil)
	settled := leakcheck.Goroutines(t)
	base := &http.Transport{}
	var granted atomic.Int32
	third := make(chan struct{})
	var first sync.Once
	var timedOut atomic.Bool
	client := &http.Client{Transport: tripper(func(r *http.Request) (*http.Response, error) {
		if r.URL.Path == "/v1/submit" {
			first.Do(func() {
				select {
				case <-third:
				case <-time.After(holdBound):
					timedOut.Store(true)
				}
			})
		}
		return grants(base, r, &granted, 3, func() { close(third) })
	})}
	res, errs := runCluster(t, srv, []WorkerOptions{{WorkerID: "w", Client: client}})
	if timedOut.Load() {
		t.Errorf("the first submission was held %v and the worker leased no third unit meanwhile: it submits in series with its scans", holdBound)
	}
	if errs[0] != nil {
		t.Fatalf("worker: %v", errs[0])
	}
	assertPlacementEquivalent(t, tgt, golden, fs, res)
	base.CloseIdleConnections()
	srv.Close()
	settled()
}

// TestPipelineHeartbeatNamesHeldUnits: the one heartbeat of a campaign
// names every unit the worker holds — the one scanning and the one asked
// for ahead. Units of 1,536 rerun classes take about twice the 5 ms
// between the beats of a 15 ms lease TTL to scan.
func TestPipelineHeartbeatNamesHeldUnits(t *testing.T) {
	tgt, golden, fs := sortCampaign(t, 12)
	srv := serveCampaign(t, tgt, golden, fs, campaign.Config{}, service.Options{UnitSize: 1536, LeaseTTL: 15 * time.Millisecond}, nil)
	settled := leakcheck.Goroutines(t)
	base := &http.Transport{}
	var mu sync.Mutex
	var frames [][]uint64
	client := &http.Client{Transport: tripper(func(r *http.Request) (*http.Response, error) {
		if r.URL.Path == "/v1/heartbeat" {
			if units, err := heartbeatUnits(r); err == nil {
				mu.Lock()
				frames = append(frames, units)
				mu.Unlock()
			}
		}
		return base.RoundTrip(r)
	})}
	res, errs := runCluster(t, srv, []WorkerOptions{{WorkerID: "w", Strategy: campaign.StrategyRerun, Workers: 1, Client: client}})
	if errs[0] != nil {
		t.Fatalf("worker: %v", errs[0])
	}
	assertPlacementEquivalent(t, tgt, golden, fs, res)
	mu.Lock()
	defer mu.Unlock()
	both := false
	for _, units := range frames {
		if len(units) > 2 {
			t.Errorf("a heartbeat names %v: the worker holds at most the unit it scans and one more", units)
		}
		both = both || len(units) == 2 && units[0] != units[1]
	}
	if !both {
		t.Errorf("no heartbeat of %d names two held units: %v", len(frames), frames)
	}
	base.CloseIdleConnections()
	srv.Close()
	settled()
}

// heartbeatUnits decodes the unit list of a heartbeat request.
func heartbeatUnits(r *http.Request) ([]uint64, error) {
	rc, err := r.GetBody()
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(rc)
	if err != nil {
		return nil, err
	}
	hb, err := DecodeHeartbeat(body)
	return hb.Units, err
}

// TestPipelineHeartbeatsRegrantedUnit: a unit whose lease expires while
// it scans may be granted to the ask ahead again. The worker does not
// scan it a second time — the first scan's submission closes it — but
// the heartbeat names it until that submission has landed. The campaign
// is one unit, sort1(20)'s memory space, about 130 ms of rerun scan; the
// ask ahead is held, and the heartbeats are dropped, until the first
// lease is three TTLs old, and the submission is held three TTLs, so
// that heartbeats fall while the second lease is held.
func TestPipelineHeartbeatsRegrantedUnit(t *testing.T) {
	const ttl = 15 * time.Millisecond
	tgt, golden, fs := sortCampaign(t, 20)
	srv := serveCampaign(t, tgt, golden, fs, campaign.Config{}, service.Options{UnitSize: len(fs.Classes), LeaseTTL: ttl}, nil)
	settled := leakcheck.Goroutines(t)
	base := &http.Transport{}
	var (
		mu         sync.Mutex
		grantedAt  time.Time
		units      []uint64   // the units granted, in order
		asked      bool       // the ask ahead has been sent on
		submitting bool       // the first scan's submission has been sent
		landed     bool       // and answered
		held       [][]uint64 // the heartbeats sent while the second lease was held
		landing    int        // how many of them while the submission was held
	)
	client := &http.Client{Transport: tripper(func(r *http.Request) (*http.Response, error) {
		mu.Lock()
		n, at, drop, record, inFlight := len(units), grantedAt, !asked, len(units) == 2 && !landed, submitting
		mu.Unlock()
		switch r.URL.Path {
		case "/v1/heartbeat":
			if drop {
				return nil, errors.New("heartbeat dropped by the test")
			}
			if record {
				hb, err := heartbeatUnits(r)
				if err != nil {
					return nil, err
				}
				mu.Lock()
				held = append(held, hb)
				if inFlight {
					landing++
				}
				mu.Unlock()
			}
		case "/v1/submit":
			mu.Lock()
			submitting = true
			mu.Unlock()
			time.Sleep(3 * ttl)
			resp, err := base.RoundTrip(r)
			mu.Lock()
			landed = true
			mu.Unlock()
			return resp, err
		case "/v1/lease":
			if n == 1 {
				time.Sleep(time.Until(at.Add(3 * ttl)))
				mu.Lock()
				asked = true
				mu.Unlock()
			}
		}
		resp, err := base.RoundTrip(r)
		if err != nil || r.URL.Path != "/v1/lease" {
			return resp, err
		}
		body, err := peek(resp)
		if err != nil {
			return nil, err
		}
		if u, err := DecodeWorkUnit(body); err == nil && u.Status == UnitGranted {
			mu.Lock()
			units, grantedAt = append(units, u.ID), time.Now()
			mu.Unlock()
		}
		return resp, nil
	})}
	reg := telemetry.New()
	joined := make(chan error, 1)
	go func() {
		joined <- Join(srv.URL, WorkerOptions{WorkerID: "w", Strategy: campaign.StrategyRerun, Workers: 1, Client: client},
			func(Spec) *telemetry.Registry { return reg })
	}()
	res, err := srv.wait()
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	srv.svc.Shutdown()
	if err := <-joined; err != nil {
		t.Fatalf("worker: %v", err)
	}
	assertPlacementEquivalent(t, tgt, golden, fs, res)
	mu.Lock()
	defer mu.Unlock()
	if len(units) < 2 || units[1] != units[0] {
		t.Fatalf("the units granted were %v: the ask ahead was not granted the expired unit again", units)
	}
	if got := reg.Counter("scan.experiments").Value(); got != uint64(len(fs.Classes)) {
		t.Errorf("the worker ran %d experiments for the unit's %d classes: a re-granted unit it had scanned was scanned again",
			got, len(fs.Classes))
	}
	for _, hb := range held {
		if !slices.Contains(hb, units[0]) {
			t.Errorf("a heartbeat sent while unit %d's second lease was held names %v", units[0], hb)
		}
	}
	if landing < 2 {
		t.Errorf("%d heartbeats were sent while the submission of unit %d was held with its second lease: want at least 2", landing, units[0])
	}
	base.CloseIdleConnections()
	srv.Close()
	settled()
}

// TestPipelineInterrupt: an interrupt while the ask for the next unit or
// the last unit's submission is in flight cuts that request, submits
// nothing more, and returns ErrInterrupted at once with no goroutine
// left behind.
func TestPipelineInterrupt(t *testing.T) {
	for _, tc := range []struct {
		name string
		// The request to hold: the nth to path.
		path string
		nth  int32
	}{
		{"mid-prefetch", "/v1/lease", 2},
		{"mid-submit", "/v1/submit", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tgt, golden, fs := SmallCampaign(t, "bin_sem2")
			srv := serveCampaign(t, tgt, golden, fs, campaign.Config{}, service.Options{UnitSize: 8}, nil)
			settled := leakcheck.Goroutines(t)
			base := &http.Transport{}
			var seen, submitted atomic.Int32
			inFlight := make(chan struct{})
			client := &http.Client{Transport: tripper(func(r *http.Request) (*http.Response, error) {
				if r.URL.Path == tc.path && seen.Add(1) == tc.nth {
					close(inFlight)
					<-r.Context().Done()
					return nil, r.Context().Err()
				}
				if r.URL.Path == "/v1/submit" {
					submitted.Add(1)
				}
				return base.RoundTrip(r)
			})}
			ctx, interrupt := context.WithCancel(context.Background())
			joined := make(chan error, 1)
			go func() { joined <- Join(srv.URL, WorkerOptions{WorkerID: "w", Context: ctx, Client: client}, nil) }()
			select {
			case <-inFlight:
			case <-time.After(holdBound):
				t.Fatalf("the worker sent no request %d to %s", tc.nth, tc.path)
			}
			before := submitted.Load()
			cut := time.Now()
			interrupt()
			select {
			case err := <-joined:
				if !errors.Is(err, campaign.ErrInterrupted) {
					t.Errorf("Join: %v, want ErrInterrupted", err)
				}
				if d := time.Since(cut); d > prompt {
					t.Errorf("Join returned %v after the interrupt, want at once", d)
				}
			case <-time.After(holdBound):
				t.Fatal("Join did not return after the interrupt")
			}
			if n := submitted.Load(); n != before {
				t.Errorf("%d submissions after the interrupt, want none", n-before)
			}
			base.CloseIdleConnections()
			srv.Close()
			settled()
		})
	}
}

// TestPipelineRejectedSubmissionEndsScan: a submission answered 4xx ends
// Join with ErrRejected at once, cutting the scan of the next unit: the
// first unit's submission is rejected only once the worker scans the
// second and has asked for a third, and the second's 1,536 rerun
// classes must not all run.
func TestPipelineRejectedSubmissionEndsScan(t *testing.T) {
	const unitSize = 1536
	tgt, golden, fs := sortCampaign(t, 12)
	srv := serveCampaign(t, tgt, golden, fs, campaign.Config{}, service.Options{UnitSize: unitSize}, nil)
	settled := leakcheck.Goroutines(t)
	base := &http.Transport{}
	var granted atomic.Int32
	third := make(chan struct{})
	client := &http.Client{Transport: tripper(func(r *http.Request) (*http.Response, error) {
		if r.URL.Path != "/v1/submit" {
			return grants(base, r, &granted, 3, func() { close(third) })
		}
		select {
		case <-third:
		case <-time.After(holdBound):
		}
		r.Body.Close()
		return &http.Response{StatusCode: http.StatusBadRequest, Header: http.Header{},
			Body: io.NopCloser(strings.NewReader("rejected by the test")), Request: r}, nil
	})}
	reg := telemetry.New()
	err := Join(srv.URL, WorkerOptions{WorkerID: "w", Strategy: campaign.StrategyRerun, Workers: 1, Telemetry: reg, Client: client}, nil)
	if !errors.Is(err, ErrRejected) {
		t.Errorf("Join: %v, want ErrRejected", err)
	}
	if granted.Load() < 3 {
		t.Errorf("the worker was granted %d units before the rejection, want 3", granted.Load())
	}
	if ran := reg.Counter("scan.experiments").Value(); ran >= 2*unitSize {
		t.Errorf("the worker ran %d experiments: the second unit's scan ran on after its first submission was rejected", ran)
	}
	base.CloseIdleConnections()
	srv.Close()
	settled()
}
