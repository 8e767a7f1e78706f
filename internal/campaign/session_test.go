package campaign

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"faultspace/internal/leakcheck"
	"faultspace/internal/pruning"
	"faultspace/internal/telemetry"
)

// sessionConfigs are the two providers as a cluster worker runs them:
// two workers each, the fork one with rungs dense enough that Hi's
// 16 classes spread over several of them.
var sessionConfigs = []Config{
	{Strategy: StrategyFork, ladderInterval: 3, Workers: 2},
	{Strategy: StrategyRerun, Workers: 2},
}

// TestSessionUnorderedUnits mirrors the cluster-worker usage: many runs
// on one session, each an arbitrary class subset — together they must
// reproduce the full scan. Every unit after the first runs on machines
// the earlier ones left in a post-experiment state.
func TestSessionUnorderedUnits(t *testing.T) {
	target := hiTarget(t)
	golden, fs := prepare(t, target)
	full, err := ResumeScan(target, golden, fs, Config{Strategy: StrategyRerun}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately unordered subsets of mixed size.
	units := [][]int{{5, 1}, {0, 2, 9, 3}, {4}, {}, {6, 7, 8, 10, 11, 12, 13, 14, 15}}
	for _, cfg := range sessionConfigs {
		s, err := OpenSession(target, golden, fs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[int]Outcome)
		for _, unit := range units {
			ran := 0
			err := s.Run(unit, func(ci int, o Outcome) {
				got[ci] = o
				ran++
			})
			if err != nil {
				t.Fatal(err)
			}
			if ran != len(unit) {
				t.Errorf("%s: unit %v delivered %d outcomes", cfg.Strategy, unit, ran)
			}
		}
		s.Close()
		if len(got) != len(full.Outcomes) {
			t.Fatalf("%s: units covered %d classes, want %d", cfg.Strategy, len(got), len(full.Outcomes))
		}
		for ci, o := range got {
			if o != full.Outcomes[ci] {
				t.Errorf("%s: class %d: units=%v full=%v", cfg.Strategy, ci, o, full.Outcomes[ci])
			}
		}
	}
}

// TestSessionOneGoldenPass: however many runs a session executes, the
// golden run is replayed for them once (the ladder and the golden-state
// index are immutable); a second session replays it again.
func TestSessionOneGoldenPass(t *testing.T) {
	target := edgeTarget()
	golden, fs, err := target.PrepareSpace(pruning.SpaceMemory, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	spans := telemetry.NewSpanRecorder(telemetry.NewTraceID(), "test", 0)
	passes := func() (n int) {
		for _, sp := range spans.Spans() {
			if sp.Name == "scan.golden_prefix" {
				n++
			}
		}
		return n
	}
	all := allClasses(len(fs.Classes))
	for want := 1; want <= 2; want++ {
		s, err := OpenSession(target, golden, fs, Config{ladderInterval: 3, Spans: spans, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(nil, nil); err != nil {
			t.Fatal(err)
		}
		if n := passes(); n != want-1 {
			t.Errorf("session %d: %d golden passes before the first class ran, want %d", want, n, want-1)
		}
		for i := 0; i < 5; i++ {
			if err := s.Run(all, func(int, Outcome) {}); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
		if n := passes(); n != want {
			t.Errorf("session %d: %d golden passes so far, want %d", want, n, want)
		}
	}
}

// TestSessionRunAllocs: what a run on a warm session allocates grows with
// the unit it is handed, not with the fault space — no machine, provider,
// record buffer or golden pass is rebuilt, and nothing is sized by the
// class count. The same 8-class unit costs the same on a 100 times larger
// campaign, and fewer bytes than one byte per class of it. One worker, so
// that the first run has warmed the one provider every later run uses:
// with two, whichever claims a long-running experiment first grows its
// loop detector inside the measurement.
func TestSessionRunAllocs(t *testing.T) {
	unit := []int{3, 0, 7, 12, 5, 9, 1, 14}
	for _, cfg := range sessionConfigs {
		cfg.Workers = 1
		measure := func(iterations int) (allocs float64, bytes, classes uint64) {
			target := loopTarget(t, iterations)
			golden, fs := prepare(t, target)
			s, err := OpenSession(target, golden, fs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			run := func() {
				if err := s.Run(unit, func(int, Outcome) {}); err != nil {
					t.Fatal(err)
				}
			}
			run() // the first run builds the machines and the golden pass
			const runs = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs = testing.AllocsPerRun(runs, run)
			runtime.ReadMemStats(&after)
			// AllocsPerRun runs once more to warm up.
			return allocs, (after.TotalAlloc - before.TotalAlloc) / (runs + 1), uint64(len(fs.Classes))
		}
		small, _, _ := measure(40)
		large, bytes, classes := measure(4000)
		t.Logf("%s: %.0f allocs per 8-class run on the small campaign, %.0f (%d bytes) on %d classes",
			cfg.Strategy, small, large, bytes, classes)
		if large > small+2 {
			t.Errorf("%s: %.0f allocs per run on %d classes, %.0f on the small campaign", cfg.Strategy, large, classes, small)
		}
		// The sorted copy of the unit, the carved units and the run's
		// shared state; no record buffer.
		if large > 4 {
			t.Errorf("%s: %.0f allocs for a run of %d classes on a warm session", cfg.Strategy, large, len(unit))
		}
		if bytes >= classes {
			t.Errorf("%s: a run of %d classes allocated %d bytes on a %d-class campaign", cfg.Strategy, len(unit), bytes, classes)
		}
	}
}

// TestSessionClosedAfterFailedRun: a run that returns an error — a
// rejected class list, a failing experiment, an interrupt — closes the
// session, and so does Close; later runs are refused.
func TestSessionClosedAfterFailedRun(t *testing.T) {
	target := hiTarget(t)
	golden, fs := prepare(t, target)
	interrupted, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		cfg  Config
		fail func(s *Session) error
	}{
		{"out of range", Config{}, func(s *Session) error { return s.Run([]int{len(fs.Classes)}, nil) }},
		{"duplicate", Config{}, func(s *Session) error { return s.Run([]int{2, 1, 2}, nil) }},
		{"ascending duplicate", Config{}, func(s *Session) error { return s.Run([]int{1, 2, 2}, nil) }},
		{"interrupt", Config{Context: interrupted}, func(s *Session) error { return s.Run([]int{0}, func(int, Outcome) {}) }},
		{"close", Config{}, func(s *Session) error { s.Close(); return ErrSessionClosed }},
	} {
		s, err := OpenSession(target, golden, fs, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := tc.fail(s); err == nil {
			t.Fatalf("%s: run succeeded", tc.name)
		}
		ran := false
		if err := s.Run([]int{0}, func(int, Outcome) { ran = true }); !errors.Is(err, ErrSessionClosed) || ran {
			t.Errorf("%s: next run: err = %v, ran = %v; want ErrSessionClosed and nothing run", tc.name, err, ran)
		}
	}

	// A failing experiment: every flip of badFlipSpace is out of range.
	bad := badFlipSpace(golden.Cycles, golden.RAMBits)
	for _, cfg := range sessionConfigs {
		s, err := OpenSession(target, golden, bad, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run([]int{0, 1}, func(int, Outcome) {}); err == nil || errors.Is(err, ErrSessionClosed) {
			t.Fatalf("%s: failing flips: err = %v", cfg.Strategy, err)
		}
		if err := s.Run([]int{0}, func(int, Outcome) {}); !errors.Is(err, ErrSessionClosed) {
			t.Errorf("%s: run after a failed run: err = %v, want ErrSessionClosed", cfg.Strategy, err)
		}
	}
}

// allClasses lists every class index of a fault space.
func allClasses(n int) []int {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}

// TestSessionCallerIsWorkerZero: a run starts only as many goroutines as
// there are units beyond the first to claim — none with one worker, and
// none with four when the class list is a single unit — so deliver runs
// on the calling goroutine's watch with no goroutine more than before.
func TestSessionCallerIsWorkerZero(t *testing.T) {
	target := loopTarget(t, 40)
	golden, fs := prepare(t, target)
	for _, tc := range []struct {
		name    string
		workers int
		classes []int
	}{
		{"one worker, whole space", 1, allClasses(len(fs.Classes))},
		{"four workers, one unit", 4, []int{2, 0, 1}},
	} {
		for _, cfg := range sessionConfigs {
			cfg.Workers = tc.workers
			s, err := OpenSession(target, golden, fs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			before, delivered := runtime.NumGoroutine(), 0
			err = s.Run(tc.classes, func(int, Outcome) {
				delivered++
				if n := runtime.NumGoroutine(); n > before {
					t.Errorf("%s, %s: %d goroutines inside deliver, %d before Run", tc.name, cfg.Strategy, n, before)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if delivered != len(tc.classes) {
				t.Errorf("%s, %s: %d of %d classes delivered", tc.name, cfg.Strategy, delivered, len(tc.classes))
			}
			s.Close()
		}
	}
}

// TestSessionDeliverSerialised: four workers deliver their own batches,
// yet deliver is never entered twice at once and each call happens-after
// the previous one — a plain counter and a plain flag suffice in the
// callback, which is what the checkpoint writer and the meter behind
// OnResult rely on. Meaningful under -race at -cpu 1,2,4 (make
// race-session).
func TestSessionDeliverSerialised(t *testing.T) {
	target := loopTarget(t, 150)
	golden, fs := prepare(t, target)
	full, err := ResumeScan(target, golden, fs, Config{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range sessionConfigs {
		cfg.Workers = 4
		s, err := OpenSession(target, golden, fs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]int, len(fs.Classes))
		calls, inside := 0, false
		err = s.Run(allClasses(len(fs.Classes)), func(ci int, o Outcome) {
			if inside {
				t.Errorf("%s: deliver re-entered at class %d", cfg.Strategy, ci)
			}
			inside = true
			calls++
			seen[ci]++
			if o != full.Outcomes[ci] {
				t.Errorf("%s: class %d: %v, one worker got %v", cfg.Strategy, ci, o, full.Outcomes[ci])
			}
			inside = false
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		if calls != len(fs.Classes) {
			t.Errorf("%s: %d deliveries for %d classes", cfg.Strategy, calls, len(fs.Classes))
		}
		for ci, n := range seen {
			if n != 1 {
				t.Errorf("%s: class %d delivered %d times", cfg.Strategy, ci, n)
			}
		}
	}
}

// TestSessionInterruptInsideDeliver: an interrupt raised from inside the
// callback — where an embedder's OnProgress raises it — is seen by every
// worker at its next poll: at most a flush window and a poll interval of
// further deliveries each, everything delivered is in the partial result,
// and the result counts the rest as pending.
func TestSessionInterruptInsideDeliver(t *testing.T) {
	target := loopTarget(t, 150)
	golden, fs := prepare(t, target)
	full, err := ResumeScan(target, golden, fs, Config{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const at = 200
	for _, cfg := range sessionConfigs {
		for _, workers := range []int{1, 4} {
			ctx, interrupt := context.WithCancel(context.Background())
			delivered := make(map[int]Outcome)
			cfg.Workers, cfg.Context = workers, ctx
			cfg.OnResult = func(ci int, o Outcome) {
				delivered[ci] = o
				if len(delivered) == at {
					interrupt()
				}
			}
			res, err := ResumeScan(target, golden, fs, cfg, nil)
			if !errors.Is(err, ErrInterrupted) || res == nil {
				t.Fatalf("%s, %d workers: result %v, err = %v", cfg.Strategy, workers, res, err)
			}
			if over, bound := len(delivered)-at, workers*(scanFlushClasses+scanPollClasses); over > bound {
				t.Errorf("%s, %d workers: %d deliveries after the interrupt, want at most %d", cfg.Strategy, workers, over, bound)
			}
			if want := len(fs.Classes) - len(delivered); res.Pending != want {
				t.Errorf("%s, %d workers: Pending = %d, want %d", cfg.Strategy, workers, res.Pending, want)
			}
			for ci, o := range delivered {
				if res.Outcomes[ci] != o || o != full.Outcomes[ci] {
					t.Errorf("%s, %d workers: class %d delivered as %v, result has %v, full scan %v",
						cfg.Strategy, workers, ci, o, res.Outcomes[ci], full.Outcomes[ci])
				}
			}
		}
	}
}

// TestSessionFailUnderFourWorkers: when every worker's flips fail, Run
// returns one of their errors — the first, not a join of four — closes
// the session and leaves no goroutine behind.
func TestSessionFailUnderFourWorkers(t *testing.T) {
	target := hiTarget(t)
	golden, _ := prepare(t, target)
	bad := badFlipSpace(golden.Cycles, golden.RAMBits)
	for _, cfg := range sessionConfigs {
		cfg.Workers = 4
		settled := leakcheck.Goroutines(t)
		s, err := OpenSession(target, golden, bad, cfg)
		if err != nil {
			t.Fatal(err)
		}
		err = s.Run(allClasses(len(bad.Classes)), func(int, Outcome) {})
		if err == nil || errors.Is(err, ErrInterrupted) || errors.Is(err, ErrSessionClosed) {
			t.Fatalf("%s: failing flips: err = %v", cfg.Strategy, err)
		}
		if u, ok := err.(interface{ Unwrap() []error }); ok {
			t.Errorf("%s: Run joined %d errors, want the first one only", cfg.Strategy, len(u.Unwrap()))
		}
		if err := s.Run([]int{0}, func(int, Outcome) {}); !errors.Is(err, ErrSessionClosed) {
			t.Errorf("%s: run after the failed run: err = %v, want ErrSessionClosed", cfg.Strategy, err)
		}
		settled()
	}
}
