package campaign

import (
	"context"
	"errors"
	"testing"
	"time"
)

// countFinals returns how many events carry Final and whether the last
// event is one of them.
func countFinals(events []Progress) (finals int, lastIsFinal bool) {
	for _, p := range events {
		if p.Final {
			finals++
		}
	}
	return finals, len(events) > 0 && events[len(events)-1].Final
}

// TestProgressEveryRecord pins the ProgressInterval < 0 contract: one
// event per completed experiment, exactly — plus the initial and the
// final event. (The collector delivers events from a single goroutine,
// so the count is deterministic even with parallel workers.)
func TestProgressEveryRecord(t *testing.T) {
	target := hiTarget(t)
	golden, fs := prepare(t, target)
	var events []Progress
	cfg := Config{
		Workers:          4,
		ProgressInterval: -1,
		OnProgress:       func(p Progress) { events = append(events, p) },
	}
	if _, err := FullScan(target, golden, fs, cfg); err != nil {
		t.Fatal(err)
	}
	if want := len(fs.Classes) + 2; len(events) != want {
		t.Errorf("got %d events, want exactly %d (initial + per-class + final)", len(events), want)
	}
	finals, last := countFinals(events)
	if finals != 1 || !last {
		t.Errorf("finals = %d (last final: %v), want exactly 1 and last", finals, last)
	}
}

// TestProgressThrottled pins the ProgressInterval > 0 contract: with an
// interval far longer than the scan, no intermediate event fires — only
// the initial and the final one.
func TestProgressThrottled(t *testing.T) {
	target := hiTarget(t)
	golden, fs := prepare(t, target)
	var events []Progress
	cfg := Config{
		ProgressInterval: time.Hour,
		OnProgress:       func(p Progress) { events = append(events, p) },
	}
	if _, err := FullScan(target, golden, fs, cfg); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2 (initial + final): %+v", len(events), events)
	}
	if events[0].Final || !events[1].Final {
		t.Errorf("event finality wrong: %+v", events)
	}
	if events[1].Done != len(fs.Classes) {
		t.Errorf("final Done = %d, want %d", events[1].Done, len(fs.Classes))
	}
}

// TestProgressFinalOnErrorPath: a scan that dies on a worker error must
// still deliver exactly one final progress event.
func TestProgressFinalOnErrorPath(t *testing.T) {
	target := hiTarget(t)
	golden, _ := prepare(t, target)
	fs := badFlipSpace(golden.Cycles, golden.RAMBits)
	var events []Progress
	cfg := Config{
		Workers:          2,
		ProgressInterval: -1,
		OnProgress:       func(p Progress) { events = append(events, p) },
	}
	if _, err := FullScan(target, golden, fs, cfg); err == nil {
		t.Fatal("failing flips must yield an error")
	}
	finals, last := countFinals(events)
	if finals != 1 || !last {
		t.Errorf("finals = %d (last final: %v), want exactly 1 and last", finals, last)
	}
}

// TestProgressFinalOnInterrupt: an interrupted scan must deliver exactly
// one final progress event too.
func TestProgressFinalOnInterrupt(t *testing.T) {
	target := hiTarget(t)
	golden, fs := prepare(t, target)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // interrupted before the scan even starts
	var events []Progress
	cfg := Config{
		Workers:          2,
		ProgressInterval: -1,
		OnProgress:       func(p Progress) { events = append(events, p) },
		Context:          ctx,
	}
	_, err := FullScan(target, golden, fs, cfg)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	finals, last := countFinals(events)
	if finals != 1 || !last {
		t.Errorf("finals = %d (last final: %v), want exactly 1 and last", finals, last)
	}
}

// TestMeterFinishIdempotent drives the meter directly: repeated finish
// calls emit the final event only once, and every event's Elapsed and
// throttle timestamp come from the same clock reading (the final event
// of an instant scan reports Elapsed >= 0).
func TestMeterFinishIdempotent(t *testing.T) {
	var events []Progress
	cfg := Config{
		ProgressInterval: -1,
		OnProgress:       func(p Progress) { events = append(events, p) },
	}
	m := newMeter(cfg, 3, nil)
	m.record(0, OutcomeNoEffect)
	m.finish()
	m.finish()
	m.finish()
	finals, last := countFinals(events)
	if finals != 1 || !last {
		t.Fatalf("finals = %d (last final: %v), want exactly 1 and last", finals, last)
	}
	if len(events) != 3 { // initial + record + final
		t.Errorf("got %d events, want 3", len(events))
	}
	for i, p := range events {
		if p.Elapsed < 0 {
			t.Errorf("event %d: negative Elapsed %v", i, p.Elapsed)
		}
	}
}
