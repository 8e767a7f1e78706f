// Package telemetry is the campaign observability layer: named atomic
// counters, gauges and duration histograms in a Registry, one bounded
// span timeline per campaign (span.go: timed spans plus zero-duration
// marks for point events) and an exportable run manifest (manifest.go).
// Those two — instruments and the timeline — are the only observation
// mechanisms; anything else worth a sentence is a log line. Stdlib only.
//
// The package is built around one non-negotiable constraint: telemetry
// must never perturb campaign results and must cost nothing when it is
// off. Every method on every type is nil-safe — a nil *Registry hands
// out nil instruments, and operations on nil instruments are single-
// branch no-ops with zero allocations (the nil-registry fast path,
// DESIGN.md §4d). Instrumented code therefore never guards call sites:
//
//	var tel *telemetry.Registry            // nil: telemetry off
//	c := tel.Counter("scan.experiments")   // nil Counter
//	c.Inc()                                // no-op, no alloc
//
// The only pattern that needs an explicit guard is timing, because the
// time.Now() read itself must be skipped when telemetry is off:
//
//	var t0 time.Time
//	if h != nil {
//		t0 = time.Now()
//	}
//	... work ...
//	if h != nil {
//		h.Observe(time.Since(t0))
//	}
//
// Instruments are cheap to re-look-up but call sites on hot paths should
// resolve them once and hold the pointers, as the scan strategies do.
package telemetry

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a named set of counters, gauges and histograms, optionally
// carrying a SpanRecorder. A nil *Registry is the disabled state: it
// hands out nil instruments and empty snapshots. A Registry is safe for
// concurrent use.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	spans      *SpanRecorder
}

// New creates an empty enabled registry.
func New() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on
// first use. On a nil registry it returns nil, which is itself a valid
// no-op counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. Nil-safe like Counter.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the duration histogram registered under name,
// creating it on first use. Nil-safe like Counter.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The zero value is ready to
// use; a nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the bucket count of a Histogram: bucket i counts
// observations with microseconds < 2^i (the last bucket is unbounded),
// spanning 1µs to ~35minutes in powers of two — wide enough for fsync
// latencies and whole-experiment runtimes alike.
const histBuckets = 32

// Histogram records durations into fixed exponential buckets with
// atomic count/sum/min/max, so concurrent Observe calls need no lock.
// The zero value is ready to use; a nil *Histogram is a no-op.
type Histogram struct {
	count atomic.Uint64
	sum   atomic.Int64 // nanoseconds
	// min holds min-nanoseconds+1 so 0 can mean "no observation yet"
	// without a seeding race between concurrent first observers.
	min     atomic.Int64
	max     atomic.Int64 // nanoseconds
	buckets [histBuckets]atomic.Uint64
}

// bucketIndex maps a duration to its bucket: the smallest i with
// microseconds < 2^i, clamped to the last (unbounded) bucket.
func bucketIndex(d time.Duration) int {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	i := bits.Len64(uint64(us)) // us < 2^Len64(us), and Len64(0) == 0
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.min.Load()
		if cur != 0 && ns+1 >= cur {
			break
		}
		if h.min.CompareAndSwap(cur, ns+1) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
	h.buckets[bucketIndex(d)].Add(1)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Snapshot is a point-in-time copy of a registry's instruments,
// JSON-serializable for the /v1/status endpoints and the run
// manifest. Maps are nil when empty so a zero Snapshot marshals small.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// HistogramSnapshot is the exported state of one Histogram. Bucket
// upper bounds are in microseconds; only non-empty buckets appear.
// P50Ns/P95Ns/P99Ns are quantile estimates interpolated from the
// exponential buckets (see quantile) — estimates, not exact order
// statistics, but within one power-of-two bucket of the truth.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	SumNs   int64    `json:"sum_ns"`
	MinNs   int64    `json:"min_ns"`
	MaxNs   int64    `json:"max_ns"`
	P50Ns   int64    `json:"p50_ns,omitempty"`
	P95Ns   int64    `json:"p95_ns,omitempty"`
	P99Ns   int64    `json:"p99_ns,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// quantile estimates the q-quantile (0 < q < 1) in nanoseconds by
// linear interpolation inside the exponential bucket holding the rank.
// Bucket i spans [2^(i-1), 2^i) microseconds, so the estimate is off by
// at most the bucket width; Min/Max clamp the first and last buckets to
// the observed extremes. Returns 0 on an empty histogram.
func (s HistogramSnapshot) quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return time.Duration(s.MinNs)
	}
	if q >= 1 {
		return time.Duration(s.MaxNs)
	}
	rank := q * float64(s.Count)
	var cum uint64
	for _, b := range s.Buckets {
		prev := cum
		cum += b.Count
		if float64(cum) < rank {
			continue
		}
		// Bucket bounds in nanoseconds: LeUs is the exclusive upper bound
		// in µs; the lower bound is the previous power of two (0 for the
		// first bucket, where sub-µs observations land). The unbounded
		// overflow bucket (LeUs == 0) tops out at the observed max.
		lower, upper := float64(0), float64(s.MaxNs)
		if b.LeUs > 1 {
			lower = float64(b.LeUs) / 2 * 1e3
		}
		if b.LeUs > 0 {
			upper = float64(b.LeUs) * 1e3
		}
		if lower < float64(s.MinNs) {
			lower = float64(s.MinNs)
		}
		if upper > float64(s.MaxNs) {
			upper = float64(s.MaxNs)
		}
		if upper < lower {
			upper = lower
		}
		pos := (rank - float64(prev)) / float64(b.Count)
		return time.Duration(lower + pos*(upper-lower))
	}
	return time.Duration(s.MaxNs)
}

// Bucket is one non-empty histogram bucket: N observations with
// microseconds < LeUs (the last bucket of a histogram is unbounded and
// reported with LeUs = 0).
type Bucket struct {
	LeUs  uint64 `json:"le_us"`
	Count uint64 `json:"n"`
}

// snapshot copies one histogram.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		SumNs: h.sum.Load(),
		MaxNs: h.max.Load(),
	}
	if v := h.min.Load(); v > 0 {
		s.MinNs = v - 1
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		b := Bucket{LeUs: 1 << uint(i), Count: n}
		if i == histBuckets-1 {
			b.LeUs = 0 // unbounded overflow bucket
		}
		s.Buckets = append(s.Buckets, b)
	}
	s.P50Ns = int64(s.quantile(0.50))
	s.P95Ns = int64(s.quantile(0.95))
	s.P99Ns = int64(s.quantile(0.99))
	return s
}

// Snapshot returns a copy of every instrument's current value. On a nil
// registry it returns the zero Snapshot. The copy is not atomic across
// instruments — counters keep counting while it is taken — but each
// individual value is a consistent atomic read.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]uint64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.histograms) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.histograms))
		for name, h := range r.histograms {
			s.Histograms[name] = h.snapshot()
		}
	}
	return s
}

// CounterNames returns the registered counter names in sorted order —
// the stable iteration order reports use.
func (s Snapshot) CounterNames() []string {
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// GaugeNames returns the registered gauge names in sorted order.
func (s Snapshot) GaugeNames() []string {
	names := make([]string, 0, len(s.Gauges))
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// HistogramNames returns the registered histogram names in sorted order.
func (s Snapshot) HistogramNames() []string {
	names := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
