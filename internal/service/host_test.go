package service

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"
	"time"

	"faultspace/internal/campaign"
	"faultspace/internal/cluster"
	"faultspace/internal/pruning"
	"faultspace/internal/telemetry"
	"faultspace/internal/trace"
)

// hostOn hosts a campaign on svc, its context cancelled when the test
// ends, and returns the wait Host returned and the campaign's host.
func hostOn(t *testing.T, svc *Service, tgt campaign.Target, golden *trace.Golden, fs *pruning.FaultSpace, cfg campaign.Config) (func() (*campaign.Result, error), *host) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	cfg.Context = ctx
	wait, err := svc.Host(tgt, golden, fs, cfg, testMaxGolden, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	id, err := tgt.CampaignIdentity(fs.Kind, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return wait, liveCoordinator(t, svc, id)
}

// oneUnitHost hosts hi carved into a single unit, so a second asker always
// draws UnitWait while the first holds the lease. It returns the server,
// the campaign's identity and host, and the local scan's outcomes.
func oneUnitHost(t *testing.T, reg *telemetry.Registry) (*httptest.Server, [32]byte, *host, []campaign.Outcome) {
	t.Helper()
	tgt := testTarget(t, "hi")
	golden, fs, err := tgt.PrepareSpace(pruning.SpaceMemory, testMaxGolden)
	if err != nil {
		t.Fatal(err)
	}
	want, err := campaign.ResumeScan(tgt, golden, fs, campaign.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc, srv := startService(t, Options{UnitSize: len(fs.Classes)})
	_, h := hostOn(t, svc, tgt, golden, fs, campaign.Config{Telemetry: reg})
	return srv, want.Identity, h, want.Outcomes
}

// leaseAs asks for a unit as workerID; with a hold query the ask parks.
func leaseAs(t *testing.T, url, query string, id [32]byte, workerID string) cluster.WorkUnit {
	t.Helper()
	resp, err := http.Post(url+"/v1/lease"+query, "application/octet-stream",
		bytes.NewReader(cluster.EncodeLeaseRequest(cluster.LeaseRequest{Identity: id, WorkerID: workerID})))
	if err != nil {
		t.Error(err)
		return cluster.WorkUnit{}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, body)
	}
	var u cluster.WorkUnit
	if err == nil {
		u, err = cluster.DecodeWorkUnit(body)
	}
	if err != nil {
		t.Errorf("lease as %s: %v", workerID, err)
	}
	return u
}

// parkLease starts a held lease ask in the background and returns once
// the host reports it parked.
func parkLease(t *testing.T, reg *telemetry.Registry, url string, id [32]byte, workerID string) <-chan cluster.WorkUnit {
	t.Helper()
	held := reg.Gauge("cluster.lease_held")
	before := held.Value()
	got := make(chan cluster.WorkUnit, 1)
	go func() { got <- leaseAs(t, url, "?wait=20s", id, workerID) }()
	waitFor(t, "the lease request to park", func() bool { return held.Value() == before+1 })
	return got
}

// answeredAtOnce receives the parked request's answer, which must come
// promptly after the event that released it.
func answeredAtOnce(t *testing.T, got <-chan cluster.WorkUnit, since time.Time, want uint8) {
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
	case <-time.After(5 * time.Second):
		t.Fatal("parked lease was not released")
	}
}

// TestHeldLeaseWakeConditions: a parked lease ask is released at once by
// a unit going back to pending and by a seal — the two steps no worker
// message makes on its own (a hello leaves and rejoins, the seal is
// retire's); internal/cluster's test of the same name drives the rest
// over the wire.
func TestHeldLeaseWakeConditions(t *testing.T) {
	t.Run("peer leaves", func(t *testing.T) {
		reg := telemetry.New()
		srv, id, coord, _ := oneUnitHost(t, reg)
		leaseAs(t, srv.URL, "", id, "holder")
		got := parkLease(t, reg, srv.URL, id, "asker")
		drained := make(chan bool, 1)
		go func() { drained <- coord.WaitDrained(5 * time.Second) }()

		event := time.Now()
		coord.Leave("holder")
		answeredAtOnce(t, got, event, cluster.UnitGranted)
		if reg.Gauge("cluster.lease_held").Value() != 0 {
			t.Error("cluster.lease_held must fall back to 0 once the request is answered")
		}
		if reg.Histogram("cluster.lease_hold").Count() != 1 {
			t.Error("cluster.lease_hold must record the one hold")
		}
		// The asker now holds the unit, so the fleet is not drained; its own
		// leave must release WaitDrained without a poll.
		select {
		case <-drained:
			t.Fatal("WaitDrained returned while a worker was still joined")
		case <-time.After(20 * time.Millisecond):
		}
		event = time.Now()
		coord.Leave("asker")
		select {
		case ok := <-drained:
			if !ok || time.Since(event) > prompt {
				t.Errorf("WaitDrained = %v, %v after the last leave", ok, time.Since(event))
			}
		case <-time.After(5 * time.Second):
			t.Fatal("WaitDrained was not released by the last leave")
		}
	})

	t.Run("seal", func(t *testing.T) {
		reg := telemetry.New()
		srv, id, coord, _ := oneUnitHost(t, reg)
		leaseAs(t, srv.URL, "", id, "holder")
		got := parkLease(t, reg, srv.URL, id, "asker")
		event := time.Now()
		coord.Seal()
		answeredAtOnce(t, got, event, cluster.UnitShutdown)
	})
}

// TestClusterUnitOrderInvariance pins two properties of the unit
// carving. First, every unit's class list is injection-ordered (the
// fork worker's monotone-cursor precondition). Second, the order units
// are GRANTED in must not matter: with the host's pending queue
// shuffled and a fork-strategy worker draining it, the merged outcome
// vector — and with it every archived report, which is a pure function
// of target, space, identity and outcomes — stays byte-identical to a
// local scan and to an unshuffled cluster run. The queue is shuffled
// through the protocol: one placeholder worker takes each unit, and they
// give them back (leave) in a shuffled order — pending is a LIFO, so the
// last unit returned is granted first.
func TestClusterUnitOrderInvariance(t *testing.T) {
	tgt := testTarget(t, "bin_sem2")
	golden, fs, err := tgt.PrepareSpace(pruning.SpaceMemory, testMaxGolden)
	if err != nil {
		t.Fatal(err)
	}
	want, err := campaign.ResumeScan(tgt, golden, fs, campaign.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	outcomesOf := func(shuffleSeed int64) []campaign.Outcome {
		svc, srv := startService(t, Options{UnitSize: 16})
		wait, coord := hostOn(t, svc, tgt, golden, fs, campaign.Config{})
		var holders []string
		for {
			name := fmt.Sprint("placeholder", len(holders))
			holders = append(holders, name)
			u := leaseAs(t, srv.URL, "", want.Identity, name)
			if u.Status != cluster.UnitGranted {
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
		joined := make(chan error, 1)
		go func() {
			joined <- cluster.Join(srv.URL, cluster.WorkerOptions{WorkerID: "fork", Strategy: campaign.StrategyFork}, nil)
		}()
		res, err := wait()
		if err != nil {
			t.Fatalf("coordinator: %v", err)
		}
		svc.Shutdown()
		if err := <-joined; err != nil {
			t.Fatal(err)
		}
		if res.Identity != want.Identity {
			t.Error("distributed campaign must keep the local campaign identity")
		}
		for i := range want.Outcomes {
			if res.Outcomes[i] != want.Outcomes[i] {
				t.Fatalf("class %d (slot %d, bit %d): distributed %v, local %v", i,
					fs.Classes[i].Slot(), fs.Classes[i].Bit, res.Outcomes[i], want.Outcomes[i])
			}
		}
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

// grantedSpec says hello as workerID — held, as a worker does, until a
// submitted campaign has started — and decodes the spec it is granted.
func grantedSpec(t *testing.T, url, workerID string) cluster.Spec {
	t.Helper()
	reply, err := cluster.DecodeHelloReply(workerAsk(t, url, "/v1/handshake?wait=5s", cluster.EncodeHello(cluster.Hello{WorkerID: workerID})))
	if err != nil || reply.Status != cluster.HelloGranted {
		t.Fatalf("hello: %+v, %v; want granted", reply, err)
	}
	spec, err := cluster.DecodeSpec(reply.Spec)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// campaignTrace reads a campaign's trace ID from its status.
func campaignTrace(t *testing.T, url string, id [32]byte) string {
	t.Helper()
	var st CampaignStatus
	getServiceJSON(t, url+"/v1/campaigns/"+hex.EncodeToString(id[:]), &st)
	return st.TraceID
}

// TestGrantedSpecIsAdmittedSpec: a campaign has one spec. The one a
// worker's hello is granted is the admitted one — the submission, or the
// spec Host made of its caller's campaign — in every field but the three
// the service stamps at start: the class count it built, its own lease
// TTL and the trace ID of the campaign's timeline.
func TestGrantedSpecIsAdmittedSpec(t *testing.T) {
	// Not the default a spec is made with, so that the stamp shows.
	const ttl = 50 * time.Millisecond
	tgt := testTarget(t, "hi")
	golden, fs, err := tgt.PrepareSpace(pruning.SpaceMemory, testMaxGolden)
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, url string, admitted cluster.Spec) {
		t.Helper()
		granted := grantedSpec(t, url, "w")
		if granted.Classes != uint64(len(fs.Classes)) || granted.LeaseTTL != ttl ||
			granted.TraceID.String() != campaignTrace(t, url, admitted.Identity) {
			t.Errorf("stamped fields: %d classes, lease TTL %v, trace %s; want %d, %v and the campaign's trace %s",
				granted.Classes, granted.LeaseTTL, granted.TraceID, len(fs.Classes), ttl, campaignTrace(t, url, admitted.Identity))
		}
		granted.Classes, granted.LeaseTTL, granted.TraceID = admitted.Classes, admitted.LeaseTTL, admitted.TraceID
		if !reflect.DeepEqual(granted, admitted) {
			t.Errorf("granted spec differs from the admitted one beyond the stamped fields:\n got %+v\nwant %+v", granted, admitted)
		}
	}

	t.Run("submitted", func(t *testing.T) {
		svc, srv := startService(t, Options{LeaseTTL: ttl})
		t.Cleanup(svc.Shutdown)
		// As a client submits it: the campaign's inputs, no class count.
		admitted, err := cluster.NewSpec(tgt, fs.Kind, campaign.Config{TimeoutFactor: 3}, testMaxGolden, 0)
		if err != nil {
			t.Fatal(err)
		}
		submitSpec(t, srv.URL, admitted, "alice")
		check(t, srv.URL, admitted)
	})

	t.Run("hosted", func(t *testing.T) {
		svc, srv := startService(t, Options{LeaseTTL: ttl})
		t.Cleanup(svc.Shutdown)
		cfg := campaign.Config{TimeoutFactor: 3}
		hostOn(t, svc, tgt, golden, fs, cfg)
		admitted, err := cluster.NewSpec(tgt, fs.Kind, cfg, testMaxGolden, 0)
		if err != nil {
			t.Fatal(err)
		}
		check(t, srv.URL, admitted)
	})
}

// TestTraceIDIsNotIdentity is invariant 15 at the service: a trace ID
// names one run of a campaign's timeline and never feeds its identity.
// The same campaign hosted on two services has one identity and two
// distinct trace IDs, neither zero; a registry with span tracing brings
// its recorder's trace ID; and a submission's trace ID is the one its
// status and its granted spec carry.
func TestTraceIDIsNotIdentity(t *testing.T) {
	tgt := testTarget(t, "hi")
	golden, fs, err := tgt.PrepareSpace(pruning.SpaceMemory, testMaxGolden)
	if err != nil {
		t.Fatal(err)
	}
	var traces []string
	for range 2 {
		svc, srv := startService(t, Options{LeaseTTL: 50 * time.Millisecond})
		wait, _ := hostOn(t, svc, tgt, golden, fs, campaign.Config{})
		id := grantedSpec(t, srv.URL, "w").Identity
		if tr := campaignTrace(t, srv.URL, id); tr == "" || tr == (telemetry.TraceID{}).String() {
			t.Errorf("hosted campaign has trace ID %q, want a non-zero one", tr)
		} else {
			traces = append(traces, tr)
		}
		svc.Shutdown()
		res, _ := wait()
		if id != res.Identity {
			t.Error("the granted spec's identity is not the hosted campaign's")
		}
		if id2, _ := tgt.CampaignIdentity(fs.Kind, campaign.Config{}); id != id2 {
			t.Error("hosting the same campaign twice gave two identities")
		}
	}
	if len(traces) == 2 && traces[0] == traces[1] {
		t.Error("two hosts of one campaign share a trace ID; timelines would collide")
	}

	t.Run("registry", func(t *testing.T) {
		reg := telemetry.New()
		tr := telemetry.NewTraceID()
		reg.EnableSpans(tr, "local", 0)
		svc, srv := startService(t, Options{LeaseTTL: 50 * time.Millisecond})
		t.Cleanup(svc.Shutdown)
		hostOn(t, svc, tgt, golden, fs, campaign.Config{Telemetry: reg})
		if got := grantedSpec(t, srv.URL, "w").TraceID; got != tr {
			t.Errorf("granted trace ID %s, want the registry recorder's %s", got, tr)
		}
	})

	t.Run("submitted", func(t *testing.T) {
		for _, tr := range []telemetry.TraceID{telemetry.NewTraceID(), {}} {
			svc, srv := startService(t, Options{LeaseTTL: 50 * time.Millisecond})
			t.Cleanup(svc.Shutdown)
			spec := testSpec(t, "hi", 0)
			spec.TraceID = tr
			st, _ := submitSpec(t, srv.URL, spec, "alice")
			granted := grantedSpec(t, srv.URL, "w")
			switch {
			case st.TraceID != granted.TraceID.String() || granted.TraceID.IsZero():
				t.Errorf("submission with trace %s: status %q, granted spec %s", tr, st.TraceID, granted.TraceID)
			case !tr.IsZero() && granted.TraceID != tr:
				t.Errorf("the submitted trace %s was replaced by %s", tr, granted.TraceID)
			}
		}
	})
}
