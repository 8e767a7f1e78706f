package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"testing"

	"faultspace/internal/cluster"
	"faultspace/internal/pruning"
	"faultspace/internal/telemetry"
	"faultspace/internal/telemetry/promtest"
)

// getServiceJSON decodes a JSON GET response into out.
func getServiceJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// TestServiceTraceAndMetrics runs one campaign through the service fleet
// and checks the full observability surface: the status carries the
// minted trace ID, /v1/campaigns/{id}/trace serves the merged timeline
// as Chrome trace-event JSON (and JSONL), and /metrics exposes the
// per-campaign counters under campaign and tenant labels through the
// grammar-validating Prometheus parser.
func TestServiceTraceAndMetrics(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t, "hi", 0)
	reg := telemetry.New()

	svc, srv := startService(t, Options{Dir: dir, Telemetry: reg})
	startFleet(t, svc, srv.URL, 1)
	st, resp := submitSpec(t, srv.URL, spec, "alice")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	st = waitDone(t, srv.URL, st.ID)
	if st.State != StateDone {
		t.Fatalf("state %s, want done", st.State)
	}
	if len(st.TraceID) != 32 {
		t.Fatalf("status trace id %q, want 32 hex chars", st.TraceID)
	}

	// The Chrome export carries the campaign's trace ID and a root span.
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Dur  float64
		} `json:"traceEvents"`
		OtherData map[string]string `json:"otherData"`
	}
	getServiceJSON(t, srv.URL+"/v1/campaigns/"+st.ID+"/trace", &doc)
	if doc.OtherData["traceId"] != st.TraceID {
		t.Errorf("trace document id %q, want %q", doc.OtherData["traceId"], st.TraceID)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			names[ev.Name] = true
		}
	}
	for _, want := range []string{"campaign", "unit.lease", "unit.scan"} {
		if !names[want] {
			t.Errorf("campaign timeline has no %q span (have %v)", want, names)
		}
	}

	// The JSONL variant serves the same spans, stamped with the trace ID.
	resp2, err := http.Get(srv.URL + "/v1/campaigns/" + st.ID + "/trace?format=jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	lines := 0
	sc := bufio.NewScanner(resp2.Body)
	for sc.Scan() {
		var line struct {
			Trace string `json:"trace"`
			Name  string `json:"name"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("jsonl line %d: %v", lines+1, err)
		}
		if line.Trace != st.TraceID || line.Name == "" {
			t.Fatalf("jsonl line %d malformed: %+v", lines+1, line)
		}
		lines++
	}
	if lines == 0 {
		t.Error("jsonl trace stream is empty")
	}

	// /metrics: service-level and per-campaign series, all grammatical.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if got := mresp.Header.Get("Content-Type"); got != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("/metrics Content-Type %q", got)
	}
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	mdoc, err := promtest.Validate(body)
	if err != nil {
		t.Fatalf("/metrics does not parse as Prometheus text format: %v\n%s", err, body)
	}
	found := false
	for _, s := range mdoc.Samples {
		if s.Name == "faultspace_scan_experiments_total" &&
			s.Labels["campaign"] == st.ID[:12] && s.Labels["tenant"] == "alice" {
			found = true
			if s.Value != float64(spec.Classes) {
				t.Errorf("campaign experiments series = %g, want %d", s.Value, spec.Classes)
			}
		}
	}
	if !found {
		t.Errorf("no faultspace_scan_experiments_total{campaign=%q,tenant=\"alice\"} series in /metrics", st.ID[:12])
	}
	svc.Shutdown()

	// An archive hit executed nothing, so it has no timeline: 404.
	svc2, srv2 := startService(t, Options{Dir: dir})
	st2, resp3 := submitSpec(t, srv2.URL, spec, "bob")
	if resp3.StatusCode != http.StatusOK || !st2.Cached {
		t.Fatalf("resubmit: HTTP %d cached %v, want archive hit", resp3.StatusCode, st2.Cached)
	}
	tr, err := http.Get(srv2.URL + "/v1/campaigns/" + st2.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	tr.Body.Close()
	if tr.StatusCode != http.StatusNotFound {
		t.Errorf("trace of a cached campaign: HTTP %d, want 404", tr.StatusCode)
	}
	svc2.Shutdown()
}

// liveCoordinator waits for the campaign to get its coordinator and
// returns it, so a test can compare what the service serves once the
// campaign is retired with what the coordinator itself says.
func liveCoordinator(t *testing.T, svc *Service, id [32]byte) *host {
	t.Helper()
	var coord *host
	waitFor(t, "the campaign's coordinator", func() bool {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		coord = svc.campaigns[id].host
		return coord != nil
	})
	return coord
}

// retiredCoordinator reports what coordinator the entry still holds.
func retiredCoordinator(svc *Service, id [32]byte) *host {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	return svc.campaigns[id].host
}

// waitRetired waits for an ended campaign to leave its active slot: the
// terminal state is published before its fleet drains, the slot freed
// after.
func waitRetired(t *testing.T, svc *Service, id [32]byte) {
	t.Helper()
	waitFor(t, "the campaign to retire", func() bool {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		return !slices.Contains(svc.active, svc.campaigns[id])
	})
}

// workerAsk posts one worker-protocol frame through the service.
func workerAsk(t *testing.T, url, path string, frame []byte) []byte {
	t.Helper()
	resp, err := http.Post(url+path, "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: HTTP %d: %s", path, resp.StatusCode, body)
	}
	return body
}

// servedTimeline fetches a campaign's /trace in both formats and returns
// the JSONL spans and the number of span and mark events in the Chrome
// document.
func servedTimeline(t *testing.T, url, id, traceID string) (spans []telemetry.Span, chromeEvents int) {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
		OtherData map[string]string `json:"otherData"`
	}
	getServiceJSON(t, url+"/v1/campaigns/"+id+"/trace", &doc)
	if doc.OtherData["traceId"] != traceID {
		t.Errorf("trace document id %q, want %q", doc.OtherData["traceId"], traceID)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" || ev.Ph == "i" {
			chromeEvents++
		}
	}
	resp, err := http.Get(url + "/v1/campaigns/" + id + "/trace?format=jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line struct {
			Trace string `json:"trace"`
			telemetry.Span
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("jsonl line %d: %v", len(spans)+1, err)
		}
		if line.Trace != traceID {
			t.Fatalf("jsonl line %d has trace %q, want %q", len(spans)+1, line.Trace, traceID)
		}
		spans = append(spans, line.Span)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return spans, chromeEvents
}

// sameTimeline compares served spans with a coordinator's own. A leave
// that was routed to the coordinator just before retire let go of it may
// land just after the copy: such a worker.left mark may be missing from
// the served timeline, nothing else.
func sameTimeline(t *testing.T, got, want []telemetry.Span) {
	t.Helper()
	i := 0
	for _, w := range want {
		if i < len(got) {
			g := got[i]
			if g.Scope == w.Scope && g.Name == w.Name && g.Detail == w.Detail && g.Start.Equal(w.Start) && g.Dur == w.Dur {
				i++
				continue
			}
		}
		if w.Name != "worker.left" {
			t.Errorf("the coordinator's span %+v is not served (next served: %d of %d)", w, i, len(got))
		}
	}
	if i != len(got) {
		t.Errorf("%d served spans are not the coordinator's, from %+v", len(got)-i, got[i])
	}
}

// TestRetiredCampaignDropsCoordinator: a campaign that has ended keeps
// answering status and /trace as its coordinator would, but no longer
// holds the coordinator — golden trace, fault space, outcome arrays and
// unit table of every campaign a long-lived service ever ran. Late
// worker traffic gets the synthesized answers of a campaign without a
// coordinator. A cancelled campaign is retired only after its fleet had
// its grace period on the live coordinator.
func TestRetiredCampaignDropsCoordinator(t *testing.T) {
	svc, srv := startService(t, Options{})
	spec := testSpecSpace(t, "bin_sem2", pruning.SpaceBurst2, "corrupt")
	st, resp := submitSpec(t, srv.URL, spec, "alice")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	coord := liveCoordinator(t, svc, spec.Identity)
	stop := startFleet(t, svc, srv.URL, 1)
	if st = waitDone(t, srv.URL, st.ID); st.State != StateDone {
		t.Fatalf("state %s, want done", st.State)
	}
	waitRetired(t, svc, spec.Identity)
	stop()

	if c := retiredCoordinator(svc, spec.Identity); c != nil {
		t.Error("the done campaign's entry still references its coordinator")
	}
	snap := coord.Snapshot()
	if snap.Attacks == 0 {
		t.Fatal("the reference campaign has no attack outcomes to compare")
	}
	if st.Done != int(spec.Classes) || st.Attacks != snap.Attacks || st.TraceID != coord.TraceID().String() {
		t.Errorf("retired status: done %d attacks %d trace %q; coordinator has %d, %d, %s",
			st.Done, st.Attacks, st.TraceID, snap.Done, snap.Attacks, coord.TraceID())
	}
	want, _ := coord.Timeline()
	got, chromeEvents := servedTimeline(t, srv.URL, st.ID, st.TraceID)
	sameTimeline(t, got, want)
	if chromeEvents != len(got) {
		t.Errorf("chrome export has %d span and mark events, the jsonl stream %d", chromeEvents, len(got))
	}

	// A straggler asks for work: done, answered without the coordinator.
	late := cluster.EncodeLeaseRequest(cluster.LeaseRequest{Identity: spec.Identity, WorkerID: "late"})
	u, err := cluster.DecodeWorkUnit(workerAsk(t, srv.URL, "/v1/lease", late))
	if err != nil {
		t.Fatal(err)
	}
	if u.Status != cluster.UnitDone {
		t.Errorf("straggling lease ask: status %d, want done", u.Status)
	}
	hello := func(id string) []byte { return cluster.EncodeHello(cluster.Hello{WorkerID: id}) }
	workerAsk(t, srv.URL, "/v1/handshake", hello("late"))
	for _, ws := range coord.Snapshot().Workers {
		if ws.ID == "late" {
			t.Error("the straggler's ask reached the retired coordinator")
		}
	}

	// Cancelled: the campaign runs unserved but for one protocol-level
	// worker holding a unit. Cancel interrupts it; the coordinator stays
	// until that worker has fetched its shutdown notice and left.
	spec2 := testSpec(t, "hi", 3)
	st2, _ := submitSpec(t, srv.URL, spec2, "alice")
	coord2 := liveCoordinator(t, svc, spec2.Identity)
	held := cluster.EncodeLeaseRequest(cluster.LeaseRequest{Identity: spec2.Identity, WorkerID: "held"})
	if u, err := cluster.DecodeWorkUnit(workerAsk(t, srv.URL, "/v1/lease", held)); err != nil || u.Status != cluster.UnitGranted {
		t.Fatalf("lease of the running campaign: %+v, %v", u, err)
	}
	cresp, err := http.Post(srv.URL+"/v1/campaigns/"+st2.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if u, err := cluster.DecodeWorkUnit(workerAsk(t, srv.URL, "/v1/lease", held)); err != nil || u.Status != cluster.UnitShutdown {
		t.Fatalf("lease of the cancelled campaign: %+v, %v", u, err)
	}
	if c := retiredCoordinator(svc, spec2.Identity); c != coord2 {
		t.Error("the cancelled campaign was retired while a worker still had to leave")
	}
	// Its next hello is its exit notice: the drain ends with it, long
	// before 2×LeaseTTL.
	workerAsk(t, srv.URL, "/v1/handshake", hello("held"))
	waitRetired(t, svc, spec2.Identity)
	if st2 = waitDone(t, srv.URL, st2.ID); st2.State != StateCancelled || st2.Done != 0 {
		t.Errorf("cancelled campaign: state %s done %d, want cancelled and 0", st2.State, st2.Done)
	}
	if c := retiredCoordinator(svc, spec2.Identity); c != nil {
		t.Error("the cancelled campaign's entry still references its coordinator")
	}
	want2, _ := coord2.Timeline()
	left := false
	for _, sp := range want2 {
		left = left || sp.Name == "worker.left" && sp.Detail == "held"
	}
	if !left {
		t.Errorf("the live coordinator never saw the held worker leave: %+v", want2)
	}
	got2, _ := servedTimeline(t, srv.URL, st2.ID, st2.TraceID)
	sameTimeline(t, got2, want2)
}
