package campaign

import "time"

// Progress is one event of a scan's progress stream. Events are delivered
// to Config.OnProgress serially: an initial event when the scan starts
// (reflecting any checkpoint-restored classes), throttled events while
// experiments complete, and a final event (Final=true) when the scan
// finishes, errors out or is interrupted.
type Progress struct {
	// Done is the number of classes with a recorded outcome, including
	// classes restored from a checkpoint. Total is the class count of the
	// fault space.
	Done, Total int
	// Session counts the experiments executed by this scan run only
	// (excludes checkpoint-restored classes) — the basis of Rate.
	Session int
	// Counts are running per-outcome class counts (by base outcome,
	// attack flag stripped), including restored classes.
	Counts [NumOutcomes]uint64
	// Attacks is the running count of classes whose outcome satisfied
	// the campaign's attacker objective (always 0 without one).
	Attacks uint64
	// Elapsed is the wall time since this scan run started.
	Elapsed time.Duration
	// Rate is experiments per second this session (0 until measurable).
	Rate float64
	// ETA estimates the remaining wall time from Rate (0 when unknown).
	ETA time.Duration
	// Final marks the last event of the scan.
	Final bool
}

// Failures returns the running weighted-class failure count — the number
// of classes (not weights) with a non-benign outcome so far.
func (p Progress) Failures() uint64 {
	var n uint64
	for o := 0; o < NumOutcomes; o++ {
		if !Outcome(o).Benign() {
			n += p.Counts[o]
		}
	}
	return n
}

// Tally is the running account of a campaign: how many classes have an
// outcome and which, how many of them this run executed, and when the
// run started. The local scan's meter and the cluster coordinator both
// keep one, so a -progress line, an OnProgress event and /v1/status
// compute Done, Rate and ETA the same way. Not safe for concurrent use;
// its holder serializes access.
type Tally struct {
	// Total is the class count of the fault space, Done the number with
	// a recorded outcome (restored ones included) and Session the number
	// executed by this run.
	Total, Done, Session int
	Counts               [NumOutcomes]uint64
	Attacks              uint64
	Start                time.Time
}

// Restore accounts one outcome carried over from a checkpoint.
func (t *Tally) Restore(o Outcome) {
	t.Counts[o.Base()]++
	if o.Attack() {
		t.Attacks++
	}
	t.Done++
}

// Record accounts one outcome produced by this run.
func (t *Tally) Record(o Outcome) {
	t.Restore(o)
	t.Session++
}

// Remaining returns the number of classes still without an outcome.
func (t *Tally) Remaining() int { return t.Total - t.Done }

// Progress builds one progress event. The single now reading is the
// clock for Elapsed and hence for Rate and ETA.
func (t *Tally) Progress(now time.Time, final bool) Progress {
	p := Progress{
		Done:    t.Done,
		Total:   t.Total,
		Session: t.Session,
		Counts:  t.Counts,
		Attacks: t.Attacks,
		Elapsed: now.Sub(t.Start),
		Final:   final,
	}
	if p.Elapsed > 0 && t.Session > 0 {
		p.Rate = float64(t.Session) / p.Elapsed.Seconds()
		if rem := t.Remaining(); rem > 0 && p.Rate > 0 {
			p.ETA = time.Duration(float64(rem) / p.Rate * float64(time.Second))
		}
	}
	return p
}

// meter accumulates scan progress and drives the OnResult / OnProgress
// callbacks. Its mutating calls are serialised by the session — record
// and delivered run under the run's delivery lock, the initial and final
// events strictly before and after the run — so it needs no locking of
// its own.
type meter struct {
	Tally
	onResult   func(class int, o Outcome)
	onProgress func(Progress)
	interval   time.Duration // < 0: emit every record

	lastEmit time.Time
	finished bool
}

// newMeter seeds the meter with checkpoint-restored outcomes and emits
// the initial progress event.
func newMeter(cfg Config, total int, prior map[int]Outcome) *meter {
	now := time.Now()
	m := &meter{
		Tally:      Tally{Total: total, Start: now},
		onResult:   cfg.OnResult,
		onProgress: cfg.OnProgress,
		interval:   cfg.ProgressInterval,
	}
	for _, o := range prior {
		m.Restore(o)
	}
	if m.onProgress != nil {
		m.emit(now, false)
	}
	return m
}

// record accounts one completed experiment. Only a negative interval —
// one event per record — reads the clock here; the throttle is checked
// once per delivered batch.
func (m *meter) record(class int, o Outcome) {
	m.Record(o)
	if m.onResult != nil {
		m.onResult(class, o)
	}
	if m.onProgress != nil && m.interval < 0 {
		m.emit(time.Now(), false)
	}
}

// delivered is the session's end-of-batch hook: it emits a throttled
// progress event when the interval has passed since the last one.
func (m *meter) delivered() {
	if m.onProgress != nil && m.interval >= 0 {
		if now := time.Now(); now.Sub(m.lastEmit) >= m.interval {
			m.emit(now, false)
		}
	}
}

// finish emits the final progress event (idempotent).
func (m *meter) finish() {
	if m.onProgress != nil && !m.finished {
		m.emit(time.Now(), true)
	}
	m.finished = true
}

// emit builds and delivers one progress event. The single now reading
// is the clock for everything — Elapsed (and hence Rate/ETA) and the
// throttle timestamp lastEmit — so an event can never report an Elapsed
// that disagrees with the instant its throttle window opened.
func (m *meter) emit(now time.Time, final bool) {
	m.lastEmit = now
	m.onProgress(m.Tally.Progress(now, final))
}
