package service

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"faultspace/internal/cluster"
)

// helloLog sits in front of a server's handler and notes the status of
// every hello it answers.
type helloLog struct {
	mu       sync.Mutex
	statuses []uint8
}

func (l *helloLog) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/handshake" {
			next.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		next.ServeHTTP(rec, r)
		if reply, err := cluster.DecodeHelloReply(rec.Body.Bytes()); err == nil {
			l.mu.Lock()
			l.statuses = append(l.statuses, reply.Status)
			l.mu.Unlock()
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	})
}

// TestJoinIsOneLoopForBothServers runs cluster.Join against the campaign
// service — the one server, favserve's and ServeScan's alike. The report
// is the local scan's, byte for byte; the worker is granted the campaign
// by its first hello and dismissed by its second — nothing else is
// answered — and returns nil; and no coordinator still hosted counts it
// as joined afterwards.
func TestJoinIsOneLoopForBothServers(t *testing.T) {
	want := localReport(t, "bin_sem2", 0)
	t.Run("service", func(t *testing.T) {
		var log helloLog
		svc, err := New(Options{UnitSize: 32})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(log.wrap(svc.Handler()))
		t.Cleanup(srv.Close)
		spec := testSpec(t, "bin_sem2", 0)
		st, _ := submitSpec(t, srv.URL, spec, "alice")
		joined := make(chan error, 1)
		go func() { joined <- cluster.Join(srv.URL, cluster.WorkerOptions{WorkerID: "w"}, nil) }()
		if st := waitDone(t, srv.URL, st.ID); st.State != StateDone {
			t.Fatalf("campaign ended %s", st.State)
		}
		if got := fetchReport(t, srv.URL, st.ID); !bytes.Equal(got, want) {
			t.Error("the report differs from the local scan's")
		}
		svc.Shutdown()
		if err := <-joined; err != nil {
			t.Errorf("Join: %v, want nil after a completed campaign", err)
		}
		if got := log.statuses; !bytes.Equal(got, []uint8{cluster.HelloGranted, cluster.HelloShutdown}) {
			t.Errorf("answered hellos %v, want one granted, then one shutdown", got)
		}
		if retiredCoordinator(svc, spec.Identity) != nil {
			t.Error("the worker still counts as joined")
		}
	})
}

// TestCancelledCampaignDrainsAtNextHello: a worker of a cancelled
// campaign is told shutdown at its next lease, and its next hello — parked
// by the service, which has nothing else to run — is its exit notice: the
// coordinator's drain ends with it instead of sitting out 2×LeaseTTL.
// The worker, whose last campaign was cut short, returns ErrShutdown
// once the service dismisses it.
func TestCancelledCampaignDrainsAtNextHello(t *testing.T) {
	const ttl = 5 * time.Second
	svc, srv := startService(t, Options{UnitSize: 4, LeaseTTL: ttl})
	spec := testSpec(t, "sort1", 0)
	st, _ := submitSpec(t, srv.URL, spec, "alice")
	coord := liveCoordinator(t, svc, spec.Identity)

	var cancelled time.Time
	var once sync.Once
	joined := make(chan error, 1)
	go func() {
		joined <- cluster.Join(srv.URL, cluster.WorkerOptions{WorkerID: "w", Workers: 1,
			Logf: func(format string, _ ...any) {
				if strings.Contains(format, "unit %d done") {
					once.Do(func() {
						cancelled = time.Now()
						resp, err := http.Post(srv.URL+"/v1/campaigns/"+st.ID+"/cancel", "", nil)
						if err != nil {
							t.Error(err)
							return
						}
						resp.Body.Close()
					})
				}
			}}, nil)
	}()
	if st := waitDone(t, srv.URL, st.ID); st.State != StateCancelled {
		t.Fatalf("campaign ended %s, want cancelled", st.State)
	}
	// The terminal state is out before the drain; the retire is its end.
	waitRetired(t, svc, spec.Identity)
	took := time.Since(cancelled)
	t.Logf("cancelled campaign retired %v after the cancel", took)
	if took > ttl {
		t.Errorf("cancelled campaign retired %v after the cancel: the drain waited for a lease timeout (2×%v), not for the worker's hello", took, ttl)
	}
	if !coord.WaitDrained(0) {
		t.Error("the coordinator was retired with the worker still joined")
	}
	svc.Shutdown()
	if err := <-joined; !errors.Is(err, cluster.ErrShutdown) {
		t.Errorf("Join: %v, want ErrShutdown after a campaign cut short", err)
	}
}
