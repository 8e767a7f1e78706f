package cluster_test

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sort"
	"testing"
	"time"

	"faultspace/internal/campaign"
	"faultspace/internal/checkpoint"
	. "faultspace/internal/cluster"
	"faultspace/internal/service"
	"faultspace/internal/telemetry"
	"faultspace/internal/telemetry/promtest"
)

// campaignURL is where the service serves the campaign: its status, and
// its timeline under /trace.
func campaignURL(srv server) string {
	return srv.URL + "/v1/campaigns/" + hex.EncodeToString(srv.id[:])
}

// timeline fetches the campaign's timeline from /trace as a client does,
// one span or mark per JSONL line.
func timeline(t testing.TB, srv server) []telemetry.Span {
	t.Helper()
	resp, err := http.Get(campaignURL(srv) + "/trace?format=jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/trace: HTTP %d", resp.StatusCode)
	}
	var spans []telemetry.Span
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var sp telemetry.Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("jsonl line %d: %v", len(spans)+1, err)
		}
		spans = append(spans, sp)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return spans
}

// chromeDoc mirrors the Chrome trace-event JSON contract under test.
type chromeDoc struct {
	TraceEvents []struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData"`
}

// leaseAs drives the lease endpoint directly, as a protocol-level worker.
func leaseAs(t *testing.T, url string, id [32]byte, workerID string) WorkUnit {
	t.Helper()
	resp, err := http.Post(url+"/v1/lease", "application/octet-stream",
		bytes.NewReader(EncodeLeaseRequest(LeaseRequest{Identity: id, WorkerID: workerID})))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lease as %s: HTTP %d: %s", workerID, resp.StatusCode, body)
	}
	u, err := DecodeWorkUnit(body)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// submitAs submits the unit's full outcome set as the given worker.
func submitAs(t *testing.T, url string, id [32]byte, workerID string, u WorkUnit, outcomes []campaign.Outcome) {
	t.Helper()
	entries := make([]checkpoint.Entry, len(u.Classes))
	for i, ci := range u.Classes {
		entries[i] = checkpoint.Entry{Class: ci, Outcome: uint8(outcomes[ci])}
	}
	s := Submission{Identity: id, WorkerID: workerID, UnitID: u.ID, Token: u.Token, Entries: entries}
	resp, err := http.Post(url+"/v1/submit", "application/octet-stream", bytes.NewReader(EncodeSubmission(s)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit as %s: HTTP %d", workerID, resp.StatusCode)
	}
}

// TestFleetTraceTimeline runs a real coordinator-plus-two-workers fleet
// and proves the merged timeline told the campaign's whole story: the
// campaign's /trace export is well-formed Chrome trace-event JSON carrying the
// campaign trace ID, it names the coordinator and both worker scopes,
// and the non-root spans cover at least 95% of the campaign's wall time
// — while the scan report stays placement-equivalent to a local run.
// The coordinator's point events are marks on the same timeline: one
// worker.joined and one worker.left per worker, and a lease.expired
// naming the unit when a worker dies holding one.
func TestFleetTraceTimeline(t *testing.T) {
	tgt, golden, fs := SmallCampaign(t, "bin_sem2")
	srv := serveCampaign(t, tgt, golden, fs, campaign.Config{}, service.Options{UnitSize: 8}, nil)
	traceID := campaignStatus(t, srv).TraceID
	if traceID == "" || traceID == (telemetry.TraceID{}).String() {
		t.Fatal("NewSpec must mint a trace ID for every cluster campaign")
	}
	res, errs := runCluster(t, srv, []WorkerOptions{
		{WorkerID: "wa"},
		{WorkerID: "wb", Strategy: campaign.StrategyFork},
	})
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	// Invariant 15: tracing is identification, never configuration — the
	// report must be byte-identical to an untraced local scan's.
	assertPlacementEquivalent(t, tgt, golden, fs, res)

	resp, err := http.Get(campaignURL(srv) + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/trace: HTTP %d", resp.StatusCode)
	}
	var doc chromeDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("/trace: decode: %v", err)
	}
	if got := doc.OtherData["traceId"]; got != traceID {
		t.Errorf("trace document id %q, want %q", got, traceID)
	}

	// Thread metadata must name every scope that produced spans —
	// the coordinator and both workers.
	scopeOf := map[int]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			scopeOf[ev.Tid] = ev.Args["name"]
		}
	}
	seen := map[string]bool{}
	for _, name := range scopeOf {
		seen[name] = true
	}
	for _, want := range []string{"coordinator", "wa", "wb"} {
		if !seen[want] {
			t.Errorf("timeline has no %q thread (scopes: %v)", want, scopeOf)
		}
	}

	// The campaign root span anchors the wall-time window.
	var campStart, campEnd float64
	haveRoot := false
	type iv struct{ lo, hi float64 }
	var others []iv
	names := map[string]bool{}
	marks := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "i" {
			marks++
		}
		if ev.Ph != "X" {
			continue
		}
		names[ev.Name] = true
		if ev.Name == "campaign" {
			haveRoot = true
			campStart, campEnd = ev.Ts, ev.Ts+ev.Dur
			continue
		}
		others = append(others, iv{ev.Ts, ev.Ts + ev.Dur})
	}
	if !haveRoot {
		t.Fatal("timeline has no campaign root span")
	}
	if campEnd <= campStart {
		t.Fatalf("campaign root span has non-positive duration [%g, %g]", campStart, campEnd)
	}
	for _, want := range []string{"unit.lease", "worker.rebuild", "unit.scan"} {
		if !names[want] {
			t.Errorf("timeline has no %q span (have %v)", want, names)
		}
	}
	assertOneGoldenPassPerWorker(t, timeline(t, srv))

	// Interval-union coverage: the non-root spans, clipped to the
	// campaign window, must explain at least 95% of the wall time — the
	// "no dark time" acceptance bar for the tracing layer.
	sort.Slice(others, func(i, j int) bool { return others[i].lo < others[j].lo })
	var covered, cursor float64
	cursor = campStart
	for _, s := range others {
		lo, hi := s.lo, s.hi
		if lo < cursor {
			lo = cursor
		}
		if hi > campEnd {
			hi = campEnd
		}
		if hi > lo {
			covered += hi - lo
			cursor = hi
		}
	}
	if frac := covered / (campEnd - campStart); frac < 0.95 {
		t.Errorf("spans cover %.1f%% of the campaign wall time, want >= 95%%", 100*frac)
	}

	// The JSONL stream must carry the same spans, one object per line,
	// each stamped with the trace ID.
	resp2, err := http.Get(campaignURL(srv) + "/trace?format=jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	lines := 0
	gotMarks := map[string]int{}
	sc := bufio.NewScanner(resp2.Body)
	for sc.Scan() {
		var line struct {
			Trace  string `json:"trace"`
			Scope  string `json:"scope"`
			Name   string `json:"name"`
			Detail string `json:"detail"`
			Dur    *int64 `json:"dur_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("jsonl line %d: %v", lines+1, err)
		}
		if line.Trace != traceID || line.Name == "" || line.Scope == "" || line.Dur == nil {
			t.Fatalf("jsonl line %d malformed: %+v", lines+1, line)
		}
		lines++
		if *line.Dur == 0 {
			if line.Scope != "coordinator" {
				t.Errorf("mark %s has scope %q, want coordinator", line.Name, line.Scope)
			}
			gotMarks[line.Name+" "+line.Detail]++
			// bench/layers.go buckets spans by these names; a mark
			// sharing one would count as a zero-length sample there.
			switch line.Name {
			case "worker.lease", "worker.submit", "unit.scan", "worker.wait":
				t.Errorf("mark %q collides with a span name the layer benchmark buckets by", line.Name)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if wantSpans := len(others) + 1 + marks; lines != wantSpans {
		t.Errorf("jsonl stream has %d spans, chrome export %d", lines, wantSpans)
	}
	wantMarks := map[string]int{
		"worker.joined wa": 1, "worker.left wa": 1,
		"worker.joined wb": 1, "worker.left wb": 1,
	}
	if !reflect.DeepEqual(gotMarks, wantMarks) {
		t.Errorf("marks = %v, want %v", gotMarks, wantMarks)
	}

	// The kill-a-worker drive at protocol level: the victim takes a unit
	// and is never heard from again, the survivor's next ask reclaims it.
	srv2, _ := oneUnitCoordinator(t, campaign.Config{}, 20*time.Millisecond)
	id := srv2.id
	lost := leaseAs(t, srv2.URL, id, "victim")
	if lost.Status != UnitGranted {
		t.Fatalf("victim lease: status %d, want granted", lost.Status)
	}
	time.Sleep(30 * time.Millisecond)
	if u := leaseAs(t, srv2.URL, id, "survivor"); u.Status != UnitGranted || u.ID != lost.ID {
		t.Fatalf("survivor lease: %+v, want the victim's unit %d", u, lost.ID)
	}
	expired := 0
	spans := timeline(t, srv2)
	for _, sp := range spans {
		if sp.Name == "lease.expired" {
			expired++
			if want := fmt.Sprintf("unit %d reclaimed from victim", lost.ID); sp.Detail != want || sp.Dur != 0 || sp.Scope != "coordinator" {
				t.Errorf("lease.expired mark = %+v, want detail %q", sp, want)
			}
		}
	}
	if expired != 1 {
		t.Errorf("%d lease.expired marks, want 1 (timeline %+v)", expired, spans)
	}
}

// TestCoordinatorMetricsExposition scrapes the /metrics of the service
// hosting the campaign through the validating Prometheus text-format
// parser: the coordinator's instruments and the synthetic per-worker
// series must all be grammatically correct, and the endpoint must work
// with or without a registry.
func TestCoordinatorMetricsExposition(t *testing.T) {
	tgt, golden, fs := SmallCampaign(t, "bin_sem2")
	reg := telemetry.New()
	srv := serveCampaign(t, tgt, golden, fs, campaign.Config{Telemetry: reg}, service.Options{UnitSize: 16}, nil)
	res, errs := runCluster(t, srv, []WorkerOptions{{WorkerID: "w1"}})
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	assertPlacementEquivalent(t, tgt, golden, fs, res)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("/metrics Content-Type %q", got)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := promtest.Validate(body)
	if err != nil {
		t.Fatalf("/metrics does not parse as Prometheus text format: %v\n%s", err, body)
	}

	find := func(name, labelKey, labelVal string) *promtest.Sample {
		for i := range doc.Samples {
			s := &doc.Samples[i]
			if s.Name == name && (labelKey == "" || s.Labels[labelKey] == labelVal) {
				return s
			}
		}
		return nil
	}
	if s := find("faultspace_cluster_leases_granted_total", "", ""); s == nil || s.Value <= 0 {
		t.Errorf("faultspace_cluster_leases_granted_total missing or zero: %+v", s)
	}
	if s := find("faultspace_cluster_worker_experiments_total", "worker", "w1"); s == nil || s.Value < float64(len(fs.Classes)) {
		t.Errorf("per-worker experiments series missing or low: %+v (want >= %d)", s, len(fs.Classes))
	}
	if doc.Types["faultspace_cluster_lease_duration_seconds"] != "histogram" {
		t.Error("faultspace_cluster_lease_duration_seconds must be declared a histogram")
	}

	// Without a registry the endpoint still serves (per-worker series
	// only) and still parses.
	srv2 := serveCampaign(t, tgt, golden, fs, campaign.Config{}, service.Options{}, nil)
	resp2, err := http.Get(srv2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body2, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := promtest.Validate(body2); err != nil {
		t.Errorf("registry-less /metrics does not parse: %v\n%s", err, body2)
	}
}
