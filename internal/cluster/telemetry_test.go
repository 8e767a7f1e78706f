package cluster_test

import (
	"encoding/json"
	"net/http"
	"testing"

	"faultspace/internal/campaign"
	. "faultspace/internal/cluster"
	"faultspace/internal/service"
	"faultspace/internal/telemetry"
)

// statusDoc mirrors the campaign status JSON contract under test.
type statusDoc struct {
	Name    string `json:"name"`
	Done    int    `json:"done"`
	Total   int    `json:"total"`
	Workers []struct {
		ID          string  `json:"id"`
		Experiments int     `json:"experiments"`
		Merged      int     `json:"merged"`
		Rate        float64 `json:"expPerSec"`
	} `json:"workers"`
	TraceID       string              `json:"traceId"`
	Spans         int                 `json:"spans"`
	SpansDropped  *uint64             `json:"spansDropped"`
	SpansCapacity int                 `json:"spansCapacity"`
	Telemetry     *telemetry.Snapshot `json:"telemetry"`
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// TestStatusAndTelemetryEndpoints runs a real loopback cluster with
// telemetry enabled and exercises the observability surface over HTTP:
// the campaign's status must carry the instrument snapshot, per-worker
// session rates and the timeline's trace ID, span count, dropped count
// and capacity.
func TestStatusAndTelemetryEndpoints(t *testing.T) {
	tgt, golden, fs := SmallCampaign(t, "bin_sem2")
	reg := telemetry.New()
	srv := serveCampaign(t, tgt, golden, fs, campaign.Config{Telemetry: reg}, service.Options{UnitSize: 16}, nil)

	wreg := telemetry.New()
	werr := make(chan error, 1)
	go func() {
		werr <- Join(srv.URL, WorkerOptions{WorkerID: "w1", Workers: 2, Telemetry: wreg}, nil)
	}()
	if _, err := srv.wait(); err != nil {
		t.Fatal(err)
	}
	srv.svc.Shutdown()
	if err := <-werr; err != nil {
		t.Fatal(err)
	}

	var st statusDoc
	getJSON(t, campaignURL(srv), &st)
	if st.Done != len(fs.Classes) || st.Total != len(fs.Classes) {
		t.Errorf("status done/total = %d/%d, want %d/%d", st.Done, st.Total, len(fs.Classes), len(fs.Classes))
	}
	if len(st.Workers) != 1 || st.Workers[0].ID != "w1" {
		t.Fatalf("status workers = %+v, want exactly w1", st.Workers)
	}
	if w := st.Workers[0]; w.Experiments < len(fs.Classes) || w.Rate <= 0 {
		t.Errorf("worker session stats wrong: %+v (want >= %d experiments, positive rate)", w, len(fs.Classes))
	}
	if st.Telemetry == nil {
		t.Fatal("status must embed the telemetry snapshot when a registry is configured")
	}
	if got := st.Telemetry.Counters["cluster.leases_granted"]; got == 0 {
		t.Error("cluster.leases_granted must be non-zero after a completed campaign")
	}
	if got := st.Telemetry.Counters["cluster.submissions"]; got == 0 {
		t.Error("cluster.submissions must be non-zero after a completed campaign")
	}

	spans := timeline(t, srv)
	var doc chromeDoc
	getJSON(t, campaignURL(srv)+"/trace", &doc)
	if st.TraceID != doc.OtherData["traceId"] || st.Spans != len(spans) || st.Spans == 0 ||
		st.SpansDropped != nil || st.SpansCapacity != TimelineCapacity {
		t.Errorf("status timeline figures: traceId %q, %d spans, dropped %v, capacity %d; want %s, %d, omitted, %d",
			st.TraceID, st.Spans, st.SpansDropped, st.SpansCapacity, doc.OtherData["traceId"], len(spans), TimelineCapacity)
	}

	// The worker's own registry saw the campaign through the campaign
	// engine: every class ran exactly once.
	if got := wreg.Counter("scan.experiments").Value(); got != uint64(len(fs.Classes)) {
		t.Errorf("worker scan.experiments = %d, want %d", got, len(fs.Classes))
	}
	if units := assertOneGoldenPassPerWorker(t, spans); units["w1"] < 4 {
		t.Errorf("worker ran %d units, the golden-pass check needs at least 4", units["w1"])
	}
}

// assertOneGoldenPassPerWorker checks the fleet timeline for one scan
// session per worker and campaign: however many units a worker ran, it
// replayed the golden run for them once. It returns the units by worker.
func assertOneGoldenPassPerWorker(t *testing.T, spans []telemetry.Span) (units map[string]int) {
	t.Helper()
	units = map[string]int{}
	passes := map[string]int{}
	for _, sp := range spans {
		switch sp.Name {
		case "unit.scan":
			units[sp.Scope]++
		case "scan.golden_prefix":
			passes[sp.Scope]++
		}
	}
	for w, n := range units {
		if passes[w] != 1 {
			t.Errorf("worker %s replayed the golden run %d times over %d units, want once", w, passes[w], n)
		}
	}
	if len(passes) > len(units) {
		t.Errorf("golden passes %v by workers that ran no unit (%v)", passes, units)
	}
	return units
}

// TestDebugEndpointsOffByDefault: the campaign server has no debug
// surface — profiling lives on the metrics listener — and without a
// registry the campaign's status carries no snapshot.
func TestDebugEndpointsOffByDefault(t *testing.T) {
	tgt, golden, fs := SmallCampaign(t, "bin_sem2")
	srv := serveCampaign(t, tgt, golden, fs, campaign.Config{}, service.Options{}, nil)
	resp, err := http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /debug/pprof/cmdline: HTTP %d, want 404", resp.StatusCode)
	}
	var st statusDoc
	getJSON(t, campaignURL(srv), &st)
	if st.Telemetry != nil {
		t.Error("status must omit the telemetry snapshot when no registry is configured")
	}
}
