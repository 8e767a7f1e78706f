package campaign

import (
	"time"

	"faultspace/internal/telemetry"
)

// scanTel bundles the telemetry instruments of one scan session, resolved
// once when it opens so the per-experiment hot path is a handful of atomic
// adds without registry lookups. With telemetry disabled
// (Config.Telemetry == nil) every instrument is nil and every method
// no-ops without reading the clock — the zero-overhead fast path
// invariant 10 builds on.
type scanTel struct {
	live bool
	// spans is the campaign timeline recorder (nil = span tracing off).
	// Deliberately independent of the instrument registry: a cluster
	// worker can trace spans without keeping a metrics registry, and vice
	// versa. Spans are phase-granular (scan run, golden prefix, fork
	// batches), never per experiment, so the hot path stays untouched.
	spans       *telemetry.SpanRecorder
	experiments *telemetry.Counter
	outcomes    [NumOutcomes]*telemetry.Histogram
	// attacks counts attack-flagged outcomes (nil without an objective).
	attacks *telemetry.Counter

	// Fork-provider counters (nil under StrategyRerun): rungRestores
	// counts rung restores (one per batch), reconverged counts runs whose
	// outcome was composed from the golden trace after their state
	// rejoined it — reconvergedShifted those that rejoined at another
	// cycle than their own, shiftCycles by how many (|Δ|, recorded as one
	// microsecond per cycle so the histogram's power-of-two-µs buckets
	// are powers of two of cycles) — matchProbes counts golden-index
	// probes and matchFalseHits hash hits the full compare rejected,
	// loopProofs counts Timeout verdicts proven by state
	// recurrence instead of simulating the full budget, forkChildren
	// counts forked child machines (one per experiment), forkSaved
	// accumulates golden-prefix cycles NOT replayed versus restoring the
	// rung per class (cursor position minus batch rung cycle at each
	// fork), forkBatches records batch sizes in classes. The "ladder."
	// prefix of these names is what dashboards and the tracked
	// benchmark already read.
	rungRestores       *telemetry.Counter
	reconverged        *telemetry.Counter
	reconvergedShifted *telemetry.Counter
	shiftCycles        *telemetry.Histogram
	matchProbes        *telemetry.Counter
	matchFalseHits     *telemetry.Counter
	loopProofs         *telemetry.Counter
	forkChildren       *telemetry.Counter
	forkSaved          *telemetry.Counter
	forkBatches        *telemetry.Histogram
}

// newScanTel resolves the scan instruments from the config's registry.
// Call after withDefaults so cfg.Strategy is concrete.
func newScanTel(cfg Config) *scanTel {
	st := &scanTel{spans: cfg.Spans}
	r := cfg.Telemetry
	if r == nil {
		return st
	}
	st.live = true
	st.experiments = r.Counter("scan.experiments")
	for o := 0; o < NumOutcomes; o++ {
		st.outcomes[o] = r.Histogram("scan.outcome." + Outcome(o).MetricName())
	}
	if cfg.Objective != nil {
		st.attacks = r.Counter("scan.attacks")
	}
	if cfg.Strategy == StrategyFork {
		st.rungRestores = r.Counter("ladder.rung_restores")
		st.reconverged = r.Counter("ladder.reconverged")
		st.reconvergedShifted = r.Counter("ladder.reconverged_shifted")
		st.shiftCycles = r.Histogram("ladder.shift_cycles")
		st.matchProbes = r.Counter("ladder.match_probes")
		st.matchFalseHits = r.Counter("ladder.match_false_hits")
		st.loopProofs = r.Counter("ladder.loop_proofs")
		st.forkChildren = r.Counter("fork.children")
		st.forkSaved = r.Counter("fork.prefix_cycles_saved")
		st.forkBatches = r.Histogram("fork.batch_sizes")
	}
	return st
}

// converged accounts one composed reconvergence of a run at cycle c with
// golden cycle t.
func (st *scanTel) converged(c, t uint64) {
	if st == nil || !st.live {
		return
	}
	st.reconverged.Inc()
	if c != t {
		st.reconvergedShifted.Inc()
		st.shiftCycles.Observe(time.Duration(max(c, t)-min(c, t)) * time.Microsecond)
	}
}

// begin stamps the start of one experiment. Disabled telemetry skips
// the clock read entirely and returns the zero time.
func (st *scanTel) begin() time.Time {
	if st == nil || !st.live {
		return time.Time{}
	}
	return time.Now()
}

// experiment accounts one completed experiment and its duration in the
// per-outcome histogram.
func (st *scanTel) experiment(o Outcome, t0 time.Time) {
	if st == nil || !st.live {
		return
	}
	st.experiments.Inc()
	st.outcomes[o.Base()].Observe(time.Since(t0))
	if o.Attack() && st.attacks != nil {
		st.attacks.Inc()
	}
}
