package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed interval of a traced run. The benchmark records
// spans from its own files, around the calls it makes into the program;
// nothing inside the program is instrumented.
type span struct {
	ID       int    // 1-based
	Parent   int    // 0 for a top-level span of a round
	Round    int    // the round the span belongs to
	Campaign string // campaign label; "" for round-level work (start, drain)
	Name     string
	Start    time.Time
	End      time.Time
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps the spans of a traced run in memory until the run ends.
// It is used from the single client goroutine only. A nil tracer records
// nothing and reads no clock: that is the untraced run.
type tracer struct {
	spans []span
}

// newTracer makes room for the spans of a run up front: growing the
// slice mid-run would copy it between two spans, where no span sees it.
func newTracer() *tracer { return &tracer{spans: make([]span, 0, 1<<15)} }

// spanRef is an open span; end closes it.
type spanRef struct {
	t *tracer
	i int
}

func (t *tracer) begin(round int, campaign, name string, parent *spanRef) *spanRef {
	if t == nil {
		return nil
	}
	p := 0
	if parent != nil {
		p = parent.i + 1
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: p, Round: round,
		Campaign: campaign, Name: name, Start: time.Now(),
	})
	return &spanRef{t, len(t.spans) - 1}
}

func (r *spanRef) end() {
	if r != nil {
		r.t.spans[r.i].End = time.Now()
	}
}

// children groups the spans by parent; 0 holds the top-level ones.
func (t *tracer) children() map[int][]span {
	by := make(map[int][]span)
	for _, s := range t.spans {
		by[s.Parent] = append(by[s.Parent], s)
	}
	return by
}

// cover returns how much of [lo, hi] the parts cover and the largest
// interval they leave uncovered.
func cover(lo, hi time.Time, parts []span) (covered time.Duration, gapAt time.Time, gap time.Duration) {
	sort.Slice(parts, func(i, j int) bool { return parts[i].Start.Before(parts[j].Start) })
	at := lo
	note := func(until time.Time) {
		if d := until.Sub(at); d > gap {
			gapAt, gap = at, d
		}
	}
	for _, p := range parts {
		s, e := p.Start, p.End
		if s.Before(at) {
			s = at
		}
		if e.After(hi) {
			e = hi
		}
		if !e.After(s) {
			continue
		}
		note(s)
		covered += e.Sub(s)
		at = e
	}
	note(hi)
	return covered, gapAt, gap
}

// minCoverage is the share of a traced round's campaign spans their
// children must account for, and of the round's wall time its top-level
// spans must.
const minCoverage = 0.95

// reconcile checks that the spans add up to what they are spans of: in
// every traced round the children of the campaign spans cover minCoverage
// of them, and the top-level spans cover minCoverage of the round's wall
// time. The campaign check is over a round's campaigns together: a
// campaign of 0.3 ms would fail it alone whenever the scheduler took the
// client off the CPU between two calls. It returns the lowest coverage
// seen and, on a shortfall, an error naming the largest uncovered interval.
func (t *tracer) reconcile(rounds []round) (lowest float64, err error) {
	children := t.children()
	lowest = 1
	for _, r := range rounds {
		if !r.traced() {
			continue
		}
		var top []span
		var campaigns, inside, gap time.Duration
		where := ""
		note := func(in string, at time.Time, d time.Duration) {
			if d > gap {
				gap, where = d, fmt.Sprintf("%v in %s, %v into the round", d, in, at.Sub(r.start))
			}
		}
		for _, s := range children[0] {
			if s.Round != r.n {
				continue
			}
			top = append(top, s)
			if s.Campaign != "" {
				covered, gapAt, g := cover(s.Start, s.End, children[s.ID])
				campaigns += s.dur()
				inside += covered
				note("campaign "+s.Campaign, gapAt, g)
			}
		}
		covered, gapAt, g := cover(r.start, r.start.Add(r.wall), top)
		note("no span", gapAt, g)
		for what, share := range map[string]float64{
			"the campaign spans": ratio(float64(inside), float64(campaigns)),
			"the wall time":      ratio(float64(covered), float64(r.wall)),
		} {
			lowest = min(lowest, share)
			if share < minCoverage && err == nil {
				err = fmt.Errorf("round %d: spans cover %.1f%% of %s (need %.0f%%); largest uncovered interval: %s",
					r.n, 100*share, what, 100*minCoverage, where)
			}
		}
	}
	return lowest, err
}

// spanTotal is the time spent under one span name: in total and in the
// span itself, outside its children.
type spanTotal struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// totals sums duration and self time (duration minus what the child
// spans cover) per span name.
func (t *tracer) totals() map[string]spanTotal {
	children := t.children()
	out := make(map[string]spanTotal)
	for _, s := range t.spans {
		covered, _, _ := cover(s.Start, s.End, children[s.ID])
		st := out[s.Name]
		st.Count++
		st.TotalMs += ms(s.dur())
		st.SelfMs += ms(s.dur() - covered)
		out[s.Name] = st
	}
	return out
}

// named returns the durations of all spans with the given name.
func (t *tracer) named(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON, loadable in
// Perfetto or chrome://tracing: one thread per round, complete events.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Round,
			Ts: us(s.Start.Sub(t.spans[0].Start)), Dur: us(s.dur()),
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "campaign": s.Campaign},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
