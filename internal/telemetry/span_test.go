package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestTraceIDParseAndString(t *testing.T) {
	id := NewTraceID()
	if id.IsZero() {
		t.Fatal("NewTraceID returned the zero (tracing off) ID")
	}
	if id == NewTraceID() {
		t.Fatal("two minted trace IDs collided")
	}
	s := id.String()
	if len(s) != 32 || strings.ToLower(s) != s {
		t.Fatalf("String() = %q, want 32 lowercase hex digits", s)
	}
	back, err := ParseTraceID(s)
	if err != nil || back != id {
		t.Fatalf("ParseTraceID(%q) = %v, %v; want original", s, back, err)
	}
	for _, bad := range []string{"", "abcd", strings.Repeat("g", 32), s + "00"} {
		if _, err := ParseTraceID(bad); err == nil {
			t.Errorf("ParseTraceID(%q) accepted malformed input", bad)
		}
	}
}

// TestSpanRecorderDropNewest pins the overflow policy: a full recorder
// keeps the spans it has (the campaign's opening phases) and counts the
// rest.
func TestSpanRecorderDropNewest(t *testing.T) {
	rec := NewSpanRecorder(NewTraceID(), "w1", 2)
	base := time.Unix(0, 1000)
	// Record out of start order to prove Spans() sorts.
	rec.Record("b", "", base.Add(time.Millisecond), time.Microsecond)
	rec.Record("a", "", base, time.Microsecond)
	rec.Record("c", "", base.Add(2*time.Millisecond), time.Microsecond)
	rec.Record("d", "", base.Add(3*time.Millisecond), time.Microsecond)
	if got := rec.Dropped(); got != 2 {
		t.Errorf("Dropped() = %d, want 2", got)
	}
	spans := rec.Spans()
	if len(spans) != 2 || spans[0].Name != "a" || spans[1].Name != "b" {
		t.Fatalf("Spans() = %+v, want [a b] sorted by start", spans)
	}
	if spans[0].Scope != "w1" {
		t.Errorf("Record must stamp the default scope, got %q", spans[0].Scope)
	}

	// Drain returns recording order and frees capacity for new spans.
	drained := rec.Drain()
	if len(drained) != 2 || drained[0].Name != "b" || drained[1].Name != "a" {
		t.Fatalf("Drain() = %+v, want [b a] in recording order", drained)
	}
	if len(rec.Spans()) != 0 {
		t.Error("recorder must be empty after Drain")
	}
	rec.Record("e", "", base, time.Microsecond)
	if got := rec.Spans(); len(got) != 1 || got[0].Name != "e" {
		t.Errorf("post-drain record lost: %+v", got)
	}

	// Add keeps the span's own scope — the coordinator's merge path.
	rec2 := NewSpanRecorder(NewTraceID(), "coordinator", 0)
	if rec2.Cap() != DefaultSpanCapacity {
		t.Errorf("default capacity = %d, want %d", rec2.Cap(), DefaultSpanCapacity)
	}
	rec2.Add(Span{Scope: "w7", Name: "unit.scan", Start: base, Dur: time.Millisecond})
	if got := rec2.Spans()[0].Scope; got != "w7" {
		t.Errorf("Add rewrote the span scope to %q", got)
	}
}

func TestActiveSpanLifecycle(t *testing.T) {
	rec := NewSpanRecorder(NewTraceID(), "local", 4)
	sp := rec.Start("scan.run")
	if !sp.Live() {
		t.Fatal("span on a live recorder must report Live")
	}
	sp.End("42 classes")
	got := rec.Spans()
	if len(got) != 1 || got[0].Name != "scan.run" || got[0].Detail != "42 classes" {
		t.Fatalf("recorded span = %+v", got)
	}
	if got[0].Dur < 0 {
		t.Errorf("span duration %v negative", got[0].Dur)
	}

	var nilRec *SpanRecorder
	inert := nilRec.Start("x")
	if inert.Live() {
		t.Error("nil recorder's Start must return an inert span")
	}
	inert.End("ignored") // must not panic
	if nilRec.TraceID() != (TraceID{}) || nilRec.Cap() != 0 || nilRec.Drain() != nil {
		t.Error("nil recorder accessors must return zero values")
	}
}

// TestWriteChromeTraceStructure pins the trace-event JSON shape Perfetto
// loads: process metadata, one named thread per scope with the
// coordinator first, one complete event per span with microsecond
// timestamps, and one thread-scoped instant event per mark.
func TestWriteChromeTraceStructure(t *testing.T) {
	trace := NewTraceID()
	base := time.Unix(100, 500)
	spans := []Span{
		{Scope: "w1", Name: "unit.scan", Start: base.Add(time.Millisecond), Dur: 2 * time.Millisecond},
		{Scope: "coordinator", Name: "campaign", Detail: "hi memory", Start: base, Dur: 5 * time.Millisecond},
	}
	rec := NewSpanRecorder(trace, "coordinator", 4)
	rec.Mark("worker.joined", "w1")
	spans = append(spans, rec.Spans()...)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, trace, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			S    string            `json:"s"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		OtherData       map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if doc.OtherData["traceId"] != trace.String() || doc.DisplayTimeUnit != "ms" {
		t.Errorf("document metadata: %+v / %q", doc.OtherData, doc.DisplayTimeUnit)
	}
	threads := map[string]int{}
	var complete, instant int
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name":
			threads[ev.Args["name"]] = ev.Tid
		case ev.Ph == "i":
			instant++
			if ev.Name != "worker.joined" || ev.S != "t" || ev.Dur != 0 || ev.Args["detail"] != "w1" {
				t.Errorf("mark rendered as %+v, want a thread-scoped instant worker.joined", ev)
			}
		case ev.Ph == "X":
			complete++
			if ev.Name == "campaign" {
				if ev.Dur != 5000 {
					t.Errorf("campaign dur = %gus, want 5000", ev.Dur)
				}
				if ev.Args["detail"] != "hi memory" {
					t.Errorf("campaign args = %v", ev.Args)
				}
			}
			if ev.Name == "unit.scan" {
				if ev.Tid != threads["w1"] {
					t.Errorf("unit.scan on tid %d, want w1's %d", ev.Tid, threads["w1"])
				}
			}
		}
	}
	if complete != 2 || instant != 1 {
		t.Errorf("%d complete and %d instant events, want 2 and 1", complete, instant)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"ph":"i"`)) {
		t.Errorf("no \"ph\":\"i\" event in %s", buf.Bytes())
	}
	// The coordinator leads the thread numbering even though its span was
	// appended last.
	if threads["coordinator"] != 1 || threads["w1"] != 2 {
		t.Errorf("thread order %v, want coordinator first", threads)
	}
}

// failWriter fails once limit bytes have been written.
type failWriter struct {
	limit int
	n     int
}

var errWriterFull = errors.New("writer full")

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n+len(p) > w.limit {
		return 0, errWriterFull
	}
	w.n += len(p)
	return len(p), nil
}

func TestSpanExportWriterErrors(t *testing.T) {
	trace := NewTraceID()
	spans := []Span{
		{Scope: "a", Name: "x", Start: time.Unix(0, 1), Dur: time.Millisecond},
		{Scope: "b", Name: "y", Start: time.Unix(0, 2), Dur: time.Millisecond},
	}
	if err := WriteSpansJSONL(&failWriter{limit: 10}, trace, spans); !errors.Is(err, errWriterFull) {
		t.Errorf("WriteSpansJSONL on a failing writer: %v, want errWriterFull", err)
	}
	if err := WriteChromeTrace(&failWriter{limit: 10}, trace, spans); !errors.Is(err, errWriterFull) {
		t.Errorf("WriteChromeTrace on a failing writer: %v, want errWriterFull", err)
	}
}

// TestHistogramQuantiles checks the interpolated quantile estimates: an
// empty histogram reads zero, and on data the estimates are ordered and
// bounded by the observed extremes (the buckets are exponential, so the
// values are estimates, not exact order statistics).
func TestHistogramQuantiles(t *testing.T) {
	var empty HistogramSnapshot
	if empty.quantile(0.5) != 0 {
		t.Error("empty histogram quantile must be 0")
	}
	r := New()
	h := r.Histogram("d")
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := r.Snapshot().Histograms["d"]
	if s.P50Ns <= 0 || s.P95Ns < s.P50Ns || s.P99Ns < s.P95Ns {
		t.Fatalf("quantiles not ordered: p50=%d p95=%d p99=%d", s.P50Ns, s.P95Ns, s.P99Ns)
	}
	if s.P50Ns < s.MinNs || s.P99Ns > s.MaxNs {
		t.Errorf("quantiles outside [min, max]: p50=%d p99=%d min=%d max=%d",
			s.P50Ns, s.P99Ns, s.MinNs, s.MaxNs)
	}
	// The p50 of a uniform 1..100us spread must land in the right
	// power-of-two bucket: [32us, 64us).
	if got := time.Duration(s.P50Ns); got < 32*time.Microsecond || got >= 64*time.Microsecond {
		t.Errorf("p50 = %v, want within the [32us, 64us) bucket", got)
	}
	if q := s.quantile(0); q != time.Duration(s.MinNs) {
		t.Errorf("quantile(0) = %v, want min", q)
	}
	if q := s.quantile(1); q != time.Duration(s.MaxNs) {
		t.Errorf("quantile(1) = %v, want max", q)
	}
}
