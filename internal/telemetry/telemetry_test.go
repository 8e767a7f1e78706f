package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("a")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("a") != c {
		t.Error("same name must return the same counter")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %d, want 4", got)
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	if c != nil {
		t.Fatal("nil registry must hand out nil counters")
	}
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Error("nil counter must read 0")
	}
	r.Gauge("g").Set(3)
	r.Histogram("h").Observe(time.Second)
	r.EnableSpans(NewTraceID(), "local", 8)
	if rec := r.SpanRecorder(); rec != nil {
		t.Error("nil registry must have no span recorder")
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Error("nil registry snapshot must be empty")
	}
}

// TestDisabledPathAllocFree is the hard half of the zero-overhead
// contract: the nil-registry fast path must not allocate, on any
// instrument or the span recorder. (BenchmarkTelemetryOverhead measures
// the time side; allocations are the deterministic assertion.)
func TestDisabledPathAllocFree(t *testing.T) {
	var r *Registry
	if n := testing.AllocsPerRun(100, func() {
		c := r.Counter("scan.experiments")
		c.Inc()
		c.Add(2)
		_ = c.Value()
		r.Gauge("g").Add(1)
		r.Histogram("h").Observe(time.Millisecond)
		// The span layer honors the same contract: a nil recorder's Start
		// returns the inert zero ActiveSpan (no clock read), and every
		// other method is a single-branch no-op.
		rec := r.SpanRecorder()
		sp := rec.Start("scan.run")
		if sp.Live() {
			t.Fatal("nil recorder span must not be live")
		}
		sp.End("detail")
		rec.Record("x", "", time.Time{}, 0)
		rec.Mark("worker.joined", "w1")
		rec.Add(Span{})
		_ = rec.Drain()
		_ = rec.Dropped()
		_ = rec.Spans()
	}); n != 0 {
		t.Errorf("disabled telemetry path allocates %.1f times per op, want 0", n)
	}
}

func TestHistogram(t *testing.T) {
	r := New()
	h := r.Histogram("d")
	h.Observe(500 * time.Nanosecond) // bucket <1us
	h.Observe(3 * time.Microsecond)  // bucket <4us
	h.Observe(3 * time.Microsecond)
	h.Observe(90 * time.Millisecond) // large bucket
	s := r.Snapshot().Histograms["d"]
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	wantSum := int64(500 + 3000 + 3000 + 90e6)
	if s.SumNs != wantSum {
		t.Errorf("sum = %d, want %d", s.SumNs, wantSum)
	}
	if s.MinNs != 500 || s.MaxNs != int64(90e6) {
		t.Errorf("min/max = %d/%d, want 500/%d", s.MinNs, s.MaxNs, int64(90e6))
	}
	var total uint64
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != 4 {
		t.Errorf("bucket counts sum to %d, want 4", total)
	}
	// The two 3us observations share the <4us bucket.
	found := false
	for _, b := range s.Buckets {
		if b.LeUs == 4 && b.Count == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("3us observations not in the <4us bucket: %+v", s.Buckets)
	}
}

func TestHistogramBucketIndex(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{999 * time.Nanosecond, 0},          // <1us
		{time.Microsecond, 1},               // <2us
		{3 * time.Microsecond, 2},           // <4us
		{1000 * time.Hour, histBuckets - 1}, // clamped to overflow
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Histogram("h").Observe(time.Duration(j) * time.Microsecond)
				r.SpanRecorder().Mark("e", "")
			}
		}()
	}
	r.EnableSpans(NewTraceID(), "local", 64)
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}

func TestSnapshotNames(t *testing.T) {
	r := New()
	r.Counter("b.two").Inc()
	r.Counter("a.one").Inc()
	r.Histogram("z").Observe(time.Millisecond)
	r.Histogram("m").Observe(time.Millisecond)
	s := r.Snapshot()
	cn := s.CounterNames()
	if len(cn) != 2 || cn[0] != "a.one" || cn[1] != "b.two" {
		t.Errorf("CounterNames = %v", cn)
	}
	hn := s.HistogramNames()
	if len(hn) != 2 || hn[0] != "m" || hn[1] != "z" {
		t.Errorf("HistogramNames = %v", hn)
	}
}

func TestManifestWriteFile(t *testing.T) {
	r := New()
	r.EnableSpans(NewTraceID(), "local", 16)
	r.Counter("scan.experiments").Add(42)
	r.SpanRecorder().Mark("scan.finish", "done")
	m := &Manifest{
		Tool:      "favscan",
		StartedAt: time.Now().Add(-time.Second),
		Benchmark: "bin_sem2",
		Identity:  "deadbeef",
		Space:     "memory",
		Strategy:  "ladder",
		Classes:   10,
		Workers:   2,
	}
	m.Finish(r)
	if m.WallSeconds <= 0 {
		t.Error("WallSeconds must be positive")
	}
	path := filepath.Join(t.TempDir(), "run.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if back.Telemetry.Counters["scan.experiments"] != 42 {
		t.Errorf("round-tripped counter = %d, want 42", back.Telemetry.Counters["scan.experiments"])
	}
	if len(back.Spans) != 1 || back.Spans[0].Name != "scan.finish" || back.Spans[0].Dur != 0 {
		t.Errorf("round-tripped spans = %+v", back.Spans)
	}
	if bytes.Contains(data, []byte(`"events`)) {
		t.Errorf("manifest still carries an events field:\n%s", data)
	}
}

// BenchmarkTelemetryOverhead compares the instrumented hot-path
// operations with telemetry disabled (nil registry) and enabled. The
// disabled variant is the number that matters: it must be within noise
// of doing nothing at all, which is what admits always-on call sites in
// the scan strategies. Run by `make check` with a fixed iteration count.
func BenchmarkTelemetryOverhead(b *testing.B) {
	run := func(b *testing.B, r *Registry) {
		c := r.Counter("scan.experiments")
		h := r.Histogram("scan.outcome.no_effect")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Inc()
			var t0 time.Time
			if h != nil {
				t0 = time.Now()
			}
			if h != nil {
				h.Observe(time.Since(t0))
			}
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, nil) })
	b.Run("enabled", func(b *testing.B) { run(b, New()) })
}
