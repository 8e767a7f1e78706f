package campaign

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"faultspace/internal/pruning"
	"faultspace/internal/telemetry"
)

// TestResumeScanMatchesFull feeds half of a completed scan back as prior
// outcomes: the resumed scan must re-run only the remainder and produce
// the identical outcome vector.
func TestResumeScanMatchesFull(t *testing.T) {
	target := hiTarget(t)
	golden, fs := prepare(t, target)
	full, err := FullScan(target, golden, fs, Config{})
	if err != nil {
		t.Fatal(err)
	}

	prior := make(map[int]Outcome)
	for i := 0; i < len(full.Outcomes); i += 2 {
		prior[i] = full.Outcomes[i]
	}
	var reran []int
	cfg := Config{OnResult: func(ci int, o Outcome) { reran = append(reran, ci) }}
	res, err := ResumeScan(target, golden, fs, cfg, prior)
	if err != nil {
		t.Fatal(err)
	}
	if len(reran) != len(full.Outcomes)-len(prior) {
		t.Errorf("resume re-ran %d classes, want %d", len(reran), len(full.Outcomes)-len(prior))
	}
	for _, ci := range reran {
		if _, ok := prior[ci]; ok {
			t.Errorf("resume re-ran already-completed class %d", ci)
		}
	}
	for i := range full.Outcomes {
		if res.Outcomes[i] != full.Outcomes[i] {
			t.Errorf("class %d: resumed=%v full=%v", i, res.Outcomes[i], full.Outcomes[i])
		}
	}
	if res.Identity != full.Identity || res.Identity == ([32]byte{}) {
		t.Error("resumed scan must carry the same non-zero campaign identity")
	}
}

// TestResumeTelemetrySessionCounters pins the scoping of the two
// progress domains across a checkpoint resume: telemetry counters are
// session-scoped (a fresh registry on resume counts only the re-run
// remainder), while the progress stream's cumulative campaign state
// (Done, Counts) restores the checkpointed classes.
func TestResumeTelemetrySessionCounters(t *testing.T) {
	target := hiTarget(t)
	golden, fs := prepare(t, target)

	reg := telemetry.New()
	full, err := FullScan(target, golden, fs, Config{Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("scan.experiments").Value(); got != uint64(len(fs.Classes)) {
		t.Fatalf("full scan ran %d experiments, want %d", got, len(fs.Classes))
	}

	prior := make(map[int]Outcome)
	for i := 0; i < len(full.Outcomes); i += 2 {
		prior[i] = full.Outcomes[i]
	}
	remainder := len(fs.Classes) - len(prior)

	resumeReg := telemetry.New()
	var finalP Progress
	cfg := Config{
		Telemetry:        resumeReg,
		ProgressInterval: -1,
		OnProgress: func(p Progress) {
			if p.Final {
				finalP = p
			}
		},
	}
	res, err := ResumeScan(target, golden, fs, cfg, prior)
	if err != nil {
		t.Fatal(err)
	}
	// Session counters reset: the resumed run counts only its own work.
	if got := resumeReg.Counter("scan.experiments").Value(); got != uint64(remainder) {
		t.Errorf("resumed scan.experiments = %d, want %d (the remainder only)", got, remainder)
	}
	snap := resumeReg.Snapshot()
	var histSum uint64
	for o := 0; o < NumOutcomes; o++ {
		histSum += snap.Histograms["scan.outcome."+Outcome(o).MetricName()].Count
	}
	if histSum != uint64(remainder) {
		t.Errorf("outcome histogram counts sum to %d, want %d", histSum, remainder)
	}
	// Cumulative campaign state restores: the final progress event covers
	// the whole campaign, not just this session.
	if finalP.Done != len(fs.Classes) || finalP.Total != len(fs.Classes) {
		t.Errorf("final Done/Total = %d/%d, want %d/%d",
			finalP.Done, finalP.Total, len(fs.Classes), len(fs.Classes))
	}
	if finalP.Session != remainder {
		t.Errorf("final Session = %d, want %d", finalP.Session, remainder)
	}
	var countSum uint64
	for _, c := range finalP.Counts {
		countSum += c
	}
	if countSum != uint64(len(fs.Classes)) {
		t.Errorf("final Counts sum to %d, want %d", countSum, len(fs.Classes))
	}
	for i := range full.Outcomes {
		if res.Outcomes[i] != full.Outcomes[i] {
			t.Fatalf("class %d: resumed=%v full=%v", i, res.Outcomes[i], full.Outcomes[i])
		}
	}
}

func TestResumeScanValidation(t *testing.T) {
	target := hiTarget(t)
	golden, fs := prepare(t, target)
	if _, err := ResumeScan(target, golden, fs, Config{}, map[int]Outcome{len(fs.Classes): 0}); err == nil {
		t.Error("out-of-range prior class index must be rejected")
	}
	if _, err := ResumeScan(target, golden, fs, Config{}, map[int]Outcome{0: Outcome(200)}); err == nil {
		t.Error("unknown prior outcome must be rejected")
	}
	// A fully-completed prior set needs no execution at all.
	full, err := FullScan(target, golden, fs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	prior := make(map[int]Outcome, len(full.Outcomes))
	for i, o := range full.Outcomes {
		prior[i] = o
	}
	cfg := Config{OnResult: func(int, Outcome) { t.Error("complete prior must not execute experiments") }}
	res, err := ResumeScan(target, golden, fs, cfg, prior)
	if err != nil {
		t.Fatal(err)
	}
	for i := range full.Outcomes {
		if res.Outcomes[i] != full.Outcomes[i] {
			t.Fatalf("class %d differs on no-op resume", i)
		}
	}
}

// loopTarget increments a RAM byte `iterations` times and prints it: 8
// equivalence classes an iteration, spread over a golden run of five
// cycles each. 40 iterations are enough for the fork provider's
// 64-record flushes and 16-class interrupt polls to matter, which Hi's
// 16 classes are not.
func loopTarget(t *testing.T, iterations int) Target {
	t.Helper()
	return assembleTarget(t, "loop", fmt.Sprintf(`
        .ram    4
        .equ    SERIAL, 0x10000
        .text
        li      r2, %d
loop:   lb      r1, 0(r0)
        addi    r1, r1, 1
        sb      r1, 0(r0)
        addi    r3, r3, 1
        blt     r3, r2, loop
        lb      r1, 0(r0)
        sb      r1, SERIAL(r0)
        halt
`, iterations))
}

// TestInterruptedScanResumes kills a scan at roughly 50% via its
// Context, then resumes from the streamed results: the merged
// outcome vector must be bit-identical to an uninterrupted scan, for both
// execution strategies.
func TestInterruptedScanResumes(t *testing.T) {
	for _, tc := range []struct {
		strat  Strategy
		target Target
	}{
		{StrategyRerun, hiTarget(t)},
		{StrategyFork, loopTarget(t, 40)},
	} {
		strat, target := tc.strat, tc.target
		golden, fs := prepare(t, target)
		full, err := FullScan(target, golden, fs, Config{})
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		done := make(map[int]Outcome)
		ctx, interrupt := context.WithCancel(context.Background())
		half := len(fs.Classes) / 2
		// One worker and the synchronous result handoff bound how far the
		// scan can run past the interrupt: the worker stops at its next
		// interrupt poll, well before the last class.
		cfg := Config{
			Strategy: strat,
			Workers:  1,
			OnResult: func(ci int, o Outcome) {
				mu.Lock()
				done[ci] = o
				n := len(done)
				mu.Unlock()
				if n >= half {
					interrupt()
				}
			},
			Context: ctx,
		}
		res, err := ResumeScan(target, golden, fs, cfg, nil)
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("%s: err = %v, want ErrInterrupted", strat, err)
		}
		if res == nil {
			t.Fatalf("%s: interrupted scan must return the partial result", strat)
		}
		if len(done) >= len(fs.Classes) {
			t.Fatalf("%s: interrupt did not stop the scan (%d/%d classes ran)",
				strat, len(done), len(fs.Classes))
		}
		// Everything streamed so far must match the full scan already.
		for ci, o := range done {
			if o != full.Outcomes[ci] {
				t.Errorf("%s: class %d: interrupted=%v full=%v", strat, ci, o, full.Outcomes[ci])
			}
		}
		resumed, err := ResumeScan(target, golden, fs, Config{Strategy: strat}, done)
		if err != nil {
			t.Fatal(err)
		}
		for i := range full.Outcomes {
			if resumed.Outcomes[i] != full.Outcomes[i] {
				t.Errorf("%s: class %d: resumed=%v full=%v",
					strat, i, resumed.Outcomes[i], full.Outcomes[i])
			}
		}
	}
}

// badFlipSpace builds a fault space whose classes all point outside RAM,
// so every flip attempt fails. Many slots and classes leave plenty of
// units unclaimed when every worker dies.
func badFlipSpace(golden uint64, ramBits uint64) *pruning.FaultSpace {
	fs := &pruning.FaultSpace{Kind: pruning.SpaceMemory, Cycles: golden, Bits: ramBits}
	for slot := uint64(1); slot <= golden; slot++ {
		for i := uint64(0); i < 8; i++ {
			fs.Classes = append(fs.Classes, pruning.Class{
				Bit:      ramBits + slot*8 + i, // out of range: flip always errors
				DefCycle: slot - 1,
				UseCycle: slot,
			})
		}
	}
	return fs
}

// TestWorkerErrorNoDeadlock is the regression test for the worker-error
// path: injected flips that fail in every worker must surface as an
// error promptly. The deadlock it was written for needed a feeder
// goroutine blocked on a send to workers that had stopped receiving;
// units are claimed now, not sent, and the test stays to hold any later
// driver to the same promise.
func TestWorkerErrorNoDeadlock(t *testing.T) {
	target := hiTarget(t)
	golden, _ := prepare(t, target)
	fs := badFlipSpace(golden.Cycles, golden.RAMBits)
	for _, strat := range []Strategy{StrategyFork, StrategyRerun} {
		errCh := make(chan error, 1)
		go func() {
			_, err := FullScan(target, golden, fs, Config{Strategy: strat, Workers: 2})
			errCh <- err
		}()
		select {
		case err := <-errCh:
			if err == nil {
				t.Fatalf("strategy %d: failing flips must yield an error", strat)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("strategy %d: scan deadlocked on worker error", strat)
		}
	}
}

func TestProgressEvents(t *testing.T) {
	target := hiTarget(t)
	golden, fs := prepare(t, target)
	var events []Progress
	cfg := Config{
		Workers:          2,
		ProgressInterval: -1, // every experiment
		OnProgress:       func(p Progress) { events = append(events, p) },
	}
	res, err := FullScan(target, golden, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < len(fs.Classes)+2 {
		t.Fatalf("got %d progress events, want >= %d (initial + per-class + final)",
			len(events), len(fs.Classes)+2)
	}
	first, last := events[0], events[len(events)-1]
	if first.Done != 0 || first.Final {
		t.Errorf("initial event wrong: %+v", first)
	}
	if !last.Final || last.Done != len(fs.Classes) || last.Total != len(fs.Classes) {
		t.Errorf("final event wrong: %+v", last)
	}
	prev := -1
	for _, p := range events {
		if p.Done < prev {
			t.Fatalf("progress went backwards: %d after %d", p.Done, prev)
		}
		prev = p.Done
	}
	var sum uint64
	for _, c := range last.Counts {
		sum += c
	}
	if sum != uint64(len(fs.Classes)) {
		t.Errorf("final outcome counts sum to %d, want %d", sum, len(fs.Classes))
	}
	if want := NonBenign(res.Count().Classes); last.Failures() != want {
		t.Errorf("final failure count %d, want %d", last.Failures(), want)
	}
}

func TestCampaignIdentity(t *testing.T) {
	target := hiTarget(t)
	id := func(tg Target, kind pruning.SpaceKind, cfg Config) [32]byte {
		t.Helper()
		h, err := tg.CampaignIdentity(kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	base := id(target, pruning.SpaceMemory, Config{})
	if base == ([32]byte{}) {
		t.Fatal("identity must be non-zero")
	}
	// That no execution option changes the identity is the root package's
	// TestOptionCensus, field by field.
	if id(target, pruning.SpaceRegisters, Config{}) == base {
		t.Error("fault-space kind must change the identity")
	}
	if id(target, pruning.SpaceMemory, Config{TimeoutFactor: 8}) == base {
		t.Error("timeout budget must change the identity")
	}
	mutated := target
	mutated.Image = append([]byte{}, target.Image...)
	mutated.Image = append(mutated.Image, 0xAA)
	if id(mutated, pruning.SpaceMemory, Config{}) == base {
		t.Error("RAM image must change the identity")
	}
}

// TestRandomCoordinateOracle validates def/use pruning end-to-end on both
// fault spaces: for random raw (slot, bit) coordinates, the brute-force
// single experiment must match the outcome the pruned scan implies (the
// class outcome for members, No Effect for pruned coordinates).
func TestRandomCoordinateOracle(t *testing.T) {
	target := hiTarget(t)
	rng := rand.New(rand.NewSource(23))
	for _, kind := range []pruning.SpaceKind{pruning.SpaceMemory, pruning.SpaceRegisters} {
		golden, fs, err := target.PrepareSpace(kind, 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		res, err := FullScan(target, golden, fs, Config{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{}.withDefaults()
		for n := 0; n < 200; n++ {
			slot := 1 + uint64(rng.Int63n(int64(fs.Cycles)))
			bit := uint64(rng.Int63n(int64(fs.Bits)))
			got, err := RunSingleSpace(target, golden, cfg, kind, slot, bit)
			if err != nil {
				t.Fatal(err)
			}
			ci, inClass, err := fs.Locate(slot, bit)
			if err != nil {
				t.Fatal(err)
			}
			want := OutcomeNoEffect
			if inClass {
				want = res.Outcomes[ci]
			}
			if got != want {
				t.Fatalf("%s (%d, %d): brute=%v pruned=%v (inClass=%v)",
					kind, slot, bit, got, want, inClass)
			}
		}
	}
}
