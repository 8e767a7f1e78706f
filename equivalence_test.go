package faultspace

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"faultspace/internal/progs"
)

// equivSizes shrinks every bundled benchmark so the naive rerun strategy
// stays affordable: the differential matrix runs each benchmark under
// every strategy in every fault space, plus an interrupted+resumed pass.
var equivSizes = progs.Sizes{
	BinSemRounds:  1,
	SyncRounds:    1,
	SyncBufBytes:  16,
	ClockTicks:    2,
	ClockPeriod:   32,
	MboxMessages:  2,
	PreemptWork:   8,
	PreemptPeriod: 24,
	SortElements:  6,
}

func equivProgram(t *testing.T, name string) *Program {
	t.Helper()
	spec, err := progs.Resolve(name, equivSizes)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := spec.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func assertSameOutcomes(t *testing.T, label string, want, got *ScanResult) {
	t.Helper()
	if len(want.Outcomes) != len(got.Outcomes) {
		t.Fatalf("%s: %d outcomes vs %d", label, len(got.Outcomes), len(want.Outcomes))
	}
	for i := range want.Outcomes {
		if want.Outcomes[i] != got.Outcomes[i] {
			t.Fatalf("%s: class %d (slot %d, bit %d): %v vs %v", label, i,
				want.Space.Classes[i].Slot(), want.Space.Classes[i].Bit,
				got.Outcomes[i], want.Outcomes[i])
		}
	}
}

// scanBytes serializes a scan result through the JSON archive writer —
// the strongest equality check available: if two results archive to the
// same bytes, every report derived from them is byte-identical too.
func scanBytes(t *testing.T, res *ScanResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveScan(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStrategyEquivalenceAllBenchmarks is the differential executor-
// equivalence matrix (DESIGN.md invariant 6): for every bundled
// benchmark × every fault-space kind, plus hardened rows (SUM+DMR and
// TMR variants, memory, register and PC spaces) whose experiments
// reconverge shifted, every executor configuration — {fork, rerun} × {predecode
// on/off}, telemetry-instrumented and span-traced variants — must archive
// byte-identically to the naive plain-decoder rerun reference (the
// explicit-rung-spacing leg is internal/campaign's
// TestForkIntervalAllPrograms). This is the invariant that justifies
// excluding Strategy, the rung spacing and Predecode from the campaign
// identity hash.
func TestStrategyEquivalenceAllBenchmarks(t *testing.T) {
	for _, name := range progs.Names() {
		t.Run(name, func(t *testing.T) {
			prog := equivProgram(t, name)
			for _, space := range []SpaceKind{SpaceMemory, SpaceRegisters,
				SpaceSkip, SpacePC, SpaceBurst2, SpaceBurst4} {
				checkExecutorEquivalence(t, prog, space)
			}
		})
	}
	// Hardened programs are the paper's Figure 2 subject and the input
	// class where nearly every experiment reconverges SHIFTED: the fault
	// is detected and corrected, which costs cycles the golden run never
	// spent, so the state rejoins the golden run a correction path late
	// and the outcome is composed from there. One row per mechanism the
	// shifted match has to get right: the two Figure 2 kernels, the
	// timer-driven programs (relative deadline), a second hardening
	// scheme, and the register and PC spaces (faults outside RAM).
	for _, row := range []struct {
		name  string
		tmr   bool
		space SpaceKind
	}{
		{"bin_sem2", false, SpaceMemory},
		{"sync2", false, SpaceMemory},
		{"clock1", false, SpaceMemory},
		{"preempt1", false, SpaceMemory},
		{"mbox1", false, SpaceMemory},
		{"bin_sem2", true, SpaceMemory},
		{"bin_sem2", false, SpaceRegisters},
		{"bin_sem2", false, SpacePC},
	} {
		label := row.name + "/sum+dmr"
		if row.tmr {
			label = row.name + "/tmr"
		}
		if row.space != SpaceMemory {
			label += "/" + row.space.String()
		}
		t.Run(label, func(t *testing.T) {
			spec, err := progs.Resolve(row.name, equivSizes)
			if err != nil {
				t.Fatal(err)
			}
			variant := "sum+dmr"
			if row.tmr {
				variant = "tmr"
			}
			prog, err := spec.Variant(variant)
			if err != nil {
				t.Fatal(err)
			}
			if shifted := checkExecutorEquivalence(t, prog, row.space); shifted == 0 {
				t.Error("no experiment reconverged shifted: the row does not exercise the any-cycle match")
			}
		})
	}
}

// checkExecutorEquivalence runs one cell of the matrix: one program, one
// fault space, every executor configuration against the rerun reference.
// It returns how many experiments the instrumented fork scan composed
// from a shifted match.
func checkExecutorEquivalence(t *testing.T, prog *Program, space SpaceKind) (shifted uint64) {
	t.Helper()
	rerun, err := Scan(prog, ScanOptions{Space: space, Strategy: StrategyRerun})
	if err != nil {
		t.Fatal(err)
	}
	ref := scanBytes(t, rerun)
	type tcase struct {
		label string
		opts  ScanOptions
		tel   bool
		trace bool
	}
	cases := []tcase{
		{label: "fork", opts: ScanOptions{Space: space, Strategy: StrategyFork}},
		{label: "fork+pre", opts: ScanOptions{Space: space, Strategy: StrategyFork, Predecode: true}},
		{label: "rerun+pre", opts: ScanOptions{Space: space, Strategy: StrategyRerun, Predecode: true}},
	}
	for _, strat := range []Strategy{StrategyFork, StrategyRerun} {
		opts := ScanOptions{Space: space, Strategy: strat, Predecode: true}
		// Telemetry observes a campaign, never steers it (invariant 10),
		// and tracing is identification, never configuration (invariant
		// 15): instrumented and span-traced scans must archive
		// byte-identically to the blind reference while actually
		// counting, and actually recording a timeline.
		cases = append(cases,
			tcase{label: strat.String() + "+pre+telemetry", opts: opts, tel: true},
			tcase{label: strat.String() + "+pre+trace", opts: opts, trace: true})
	}
	for _, tc := range cases {
		var reg *Telemetry
		if tc.tel || tc.trace {
			reg = NewTelemetry()
			tc.opts.Telemetry = reg
		}
		if tc.trace {
			reg.EnableSpans(NewTraceID(), "local", 0)
		}
		label := fmt.Sprintf("%s %s %s vs rerun", prog.Name, space, tc.label)
		got, err := Scan(prog, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		assertSameOutcomes(t, label, rerun, got)
		if got.Identity != rerun.Identity {
			t.Errorf("%s: strategies must share one campaign identity", label)
		}
		if !bytes.Equal(scanBytes(t, got), ref) {
			t.Errorf("%s: archived reports are not byte-identical", label)
		}
		if tc.tel {
			snap := reg.Snapshot()
			if exp := snap.Counters["scan.experiments"]; exp != uint64(len(got.Space.Classes)) {
				t.Errorf("%s: scan.experiments = %d, want %d", label, exp, len(got.Space.Classes))
			}
			shifted += snap.Counters["ladder.reconverged_shifted"]
		}
		if tc.trace {
			spans := reg.SpanRecorder().Spans()
			haveRun := false
			for _, sp := range spans {
				if sp.Name == "scan.run" {
					haveRun = true
				}
			}
			if !haveRun {
				t.Errorf("%s: traced scan recorded no scan.run span (%d spans)", label, len(spans))
			}
		}
	}
	return shifted
}

// TestObjectiveStrategyEquivalence pins the objective soundness contract
// down differentially: under an attacker objective the attack flags are
// part of the recorded outcome, and the accelerated fork executor must
// still archive byte-identically to the plain rerun reference. The PC
// space is the sharp case — its classes are only outcome-equivalent, so
// a predicate peeking at non-invariant observables would diverge here.
func TestObjectiveStrategyEquivalence(t *testing.T) {
	prog := equivProgram(t, "bin_sem2")
	for _, space := range []SpaceKind{SpacePC, SpaceSkip, SpaceBurst2} {
		for _, obj := range ObjectiveNames() {
			rerun, err := Scan(prog, ScanOptions{Space: space, Strategy: StrategyRerun, Objective: obj})
			if err != nil {
				t.Fatal(err)
			}
			ref := scanBytes(t, rerun)
			label := fmt.Sprintf("%s/%s/fork", space, obj)
			got, err := Scan(prog, ScanOptions{Space: space, Strategy: StrategyFork,
				Predecode: true, Objective: obj})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertSameOutcomes(t, label, rerun, got)
			if !bytes.Equal(scanBytes(t, got), ref) {
				t.Errorf("%s: archived reports are not byte-identical", label)
			}
			// The objective changes recorded outcomes, so it must change
			// the campaign identity (unlike the accelerator knobs).
			plain, err := CampaignIdentity(prog, ScanOptions{Space: space})
			if err != nil {
				t.Fatal(err)
			}
			if rerun.Identity == plain {
				t.Errorf("%s/%s: objective campaigns must not share the plain identity", space, obj)
			}
		}
	}
}

// TestInterruptResumeEquivalence interrupts a scan at ~50%, resumes it
// from its checkpoint under the other strategy, and requires the
// resumed result to match an uninterrupted scan bit-for-bit — the
// checkpoint is strategy-agnostic by design. Rerun is the interrupted
// leg because its four-class units are interruptible even on Hi's 16
// classes; the fork→fork and fork→rerun directions follow below.
func TestInterruptResumeEquivalence(t *testing.T) {
	for _, name := range progs.Names() {
		t.Run(name, func(t *testing.T) {
			testInterruptResume(t, equivProgram(t, name), ScanOptions{Strategy: StrategyRerun}, StrategyFork)
		})
	}
}

// TestInterruptResumeFork is the executor-equivalence invariant's
// interrupt+resume leg: a fork-strategy scan interrupted mid-run
// (exercising the driver's feeder and worker interrupt paths) and
// resumed under fork — so the resume's batch carving runs on an
// arbitrary leftover class subset — must be byte-identical to an
// uninterrupted scan, across all six fault spaces.
// The dos objective on the skip space checks the attack flag survives
// the fork round trip.
func TestInterruptResumeFork(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts ScanOptions
	}{
		{"memory", ScanOptions{Space: SpaceMemory, Strategy: StrategyFork}},
		{"registers", ScanOptions{Space: SpaceRegisters, Strategy: StrategyFork}},
		{"skip+dos", ScanOptions{Space: SpaceSkip, Strategy: StrategyFork, Objective: "dos"}},
		{"pc", ScanOptions{Space: SpacePC, Strategy: StrategyFork}},
		{"burst2", ScanOptions{Space: SpaceBurst2, Strategy: StrategyFork}},
		{"burst4", ScanOptions{Space: SpaceBurst4, Strategy: StrategyFork}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testInterruptResume(t, equivProgram(t, "bin_sem2"), tc.opts, StrategyFork)
		})
	}
}

// TestInterruptResumeAttackSpaces is the same invariant under the
// attack-style fault models: a skip campaign under the dos objective
// (attack-flagged outcome bytes must survive the checkpoint round trip)
// and a plain burst campaign.
func TestInterruptResumeAttackSpaces(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts ScanOptions
	}{
		{"skip+dos", ScanOptions{Space: SpaceSkip, Objective: "dos"}},
		{"burst2", ScanOptions{Space: SpaceBurst2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testInterruptResume(t, equivProgram(t, "bin_sem2"), tc.opts, StrategyRerun)
		})
	}
}

func testInterruptResume(t *testing.T, prog *Program, opts ScanOptions, resume Strategy) {
	t.Helper()
	full, err := Scan(prog, opts)
	if err != nil {
		t.Fatal(err)
	}

	ck := filepath.Join(t.TempDir(), "scan.ckpt")
	ctx, intCh := context.WithCancel(context.Background())
	var once sync.Once
	popts := opts
	popts.Workers = 1
	popts.Checkpoint = ck
	popts.ProgressInterval = -1
	popts.OnProgress = func(p Progress) {
		if p.Done >= p.Total/2 && p.Done > 0 {
			once.Do(intCh)
		}
	}
	popts.Context = ctx
	partial, err := Scan(prog, popts)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted scan: err = %v, want ErrInterrupted", err)
	}
	if partial == nil {
		t.Fatal("interrupted scan must return its partial result")
	}
	// Resume under a different (or the caller's chosen) strategy: the
	// checkpoint must not care what executed the first half.
	ropts := opts
	ropts.Checkpoint = ck
	ropts.Resume = true
	ropts.Strategy = resume
	resumed, err := Scan(prog, ropts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutcomes(t, "interrupted+resumed vs uninterrupted", full, resumed)
	if resumed.Identity != full.Identity {
		t.Error("resumed scan must keep the campaign identity")
	}
	if !bytes.Equal(scanBytes(t, resumed), scanBytes(t, full)) {
		t.Error("resumed archive is not byte-identical to an uninterrupted scan's")
	}
}

// TestCancelInsideProgress: an embedder that cancels its Context inside
// OnProgress stops a checkpointed scan at the delivering worker's next
// poll, not once some goroutine has passed the cancellation on: the
// scan's context is a child of the caller's, and cancelling a parent
// cancels its children before it returns. One worker, cancelled at the
// first intermediate event, a hundred times under each strategy.
func TestCancelInsideProgress(t *testing.T) {
	prog := equivProgram(t, "sort1")
	dir := t.TempDir()
	for _, strat := range []Strategy{StrategyFork, StrategyRerun} {
		for i := 0; i < 100; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			res, err := Scan(prog, ScanOptions{
				Strategy:         strat,
				Workers:          1,
				Checkpoint:       filepath.Join(dir, fmt.Sprintf("%s%d.ckpt", strat, i)),
				ProgressInterval: -1,
				OnProgress: func(p Progress) {
					if p.Session > 0 && !p.Final {
						cancel()
					}
				},
				Context: ctx,
			})
			cancel()
			if !errors.Is(err, ErrInterrupted) || res == nil || res.Pending == 0 {
				t.Fatalf("%s, run %d: err = %v, result %v; want ErrInterrupted with classes pending", strat, i, err, res != nil)
			}
		}
	}
}

// TestSampleResultsPinned holds the sampler to the exact results it
// produced before it ran through the scan driver (values recorded at
// commit 60a8084, where SampleScan was a serial rerun-from-reset loop
// with its own outcome cache): draws never depend on outcomes, so
// drawing first, running the unique classes once through RunClasses and
// tallying in draw order must change nothing — not the per-outcome
// counts, not the attack count, not the number of experiments.
func TestSampleResultsPinned(t *testing.T) {
	prog := equivProgram(t, "bin_sem2")
	for _, tc := range []struct {
		mode        string
		seed        int64
		counts      [8]uint64
		attacks     uint64
		experiments int
	}{
		{"raw", 1, [8]uint64{367, 0, 13, 4, 7, 9, 0, 0}, 20, 84},
		{"raw", 2, [8]uint64{367, 0, 12, 0, 14, 7, 0, 0}, 21, 88},
		{"effective", 1, [8]uint64{253, 0, 43, 11, 50, 42, 0, 1}, 104, 331},
		{"effective", 2, [8]uint64{248, 0, 47, 14, 50, 41, 0, 0}, 105, 328},
		{"biased", 1, [8]uint64{207, 0, 58, 12, 93, 29, 0, 1}, 135, 345},
		{"biased", 2, [8]uint64{208, 0, 53, 10, 103, 26, 0, 0}, 139, 337},
	} {
		sr, err := Sample(prog, SampleOptions{
			ScanOptions: ScanOptions{Objective: "dos"},
			N:           400,
			Seed:        tc.seed,
			Biased:      tc.mode == "biased",
			Effective:   tc.mode == "effective",
		})
		if err != nil {
			t.Fatalf("%s/%d: %v", tc.mode, tc.seed, err)
		}
		if sr.Counts != tc.counts || sr.Attacks != tc.attacks || sr.Experiments != tc.experiments {
			t.Errorf("%s/%d: counts=%v attacks=%d experiments=%d, want %v / %d / %d",
				tc.mode, tc.seed, sr.Counts, sr.Attacks, sr.Experiments,
				tc.counts, tc.attacks, tc.experiments)
		}
	}
}
