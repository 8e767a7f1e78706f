package campaign

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"faultspace/internal/asm"
	"faultspace/internal/isa"
	"faultspace/internal/machine"
	"faultspace/internal/progs"
	"faultspace/internal/pruning"
	"faultspace/internal/telemetry"
)

// edgeTarget is built so its fault space exercises every rung corner:
// the very first instruction reads preloaded RAM (classes at slot 1,
// i.e. injection at cycle 0), and reads continue until right before the
// halt (a class at the maximal slot).
func edgeTarget() Target {
	serial := int32(machine.PortSerial)
	prog := []isa.Instruction{
		{Op: isa.OpLb, Rd: 1, Rs: 0, Imm: 0},       // cycle 1: use of image byte 0
		{Op: isa.OpSb, Rt: 1, Rs: 0, Imm: serial},  // cycle 2
		{Op: isa.OpSbi, Rs: 0, Imm: 1, Imm2: 0x5a}, // cycle 3: def byte 1
		{Op: isa.OpNop},                           // cycle 4
		{Op: isa.OpNop},                           // cycle 5
		{Op: isa.OpLb, Rd: 2, Rs: 0, Imm: 1},      // cycle 6: use at a rung boundary (interval 5)
		{Op: isa.OpSb, Rt: 2, Rs: 0, Imm: serial}, // cycle 7
		{Op: isa.OpNop},                           // cycle 8
		{Op: isa.OpLb, Rd: 3, Rs: 0, Imm: 0},      // cycle 9: use right before halt
		{Op: isa.OpSb, Rt: 3, Rs: 0, Imm: serial}, // cycle 10
		{Op: isa.OpHalt},                          // cycle 11
	}
	return Target{
		Name:  "edge",
		Code:  prog,
		Image: []byte{0xa5, 0, 0, 0},
		Mach:  machine.Config{RAMSize: 4},
	}
}

// TestForkEdgeCases pins the fork provider's corner cases against rerun:
// injection at cycle 0 (slot 1, forked straight off rung 0), injection
// exactly at a rung boundary (the cursor does not advance before the
// fork), injection at the maximal slot, all on a fixed program where the
// rung positions are known.
func TestForkEdgeCases(t *testing.T) {
	target := edgeTarget()
	golden, fs, err := target.PrepareSpace(pruning.SpaceMemory, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.Classes) == 0 {
		t.Fatal("edge target has an empty fault space")
	}
	const interval = 5 // rungs at cycles 0, 5, 10 for the 11-cycle golden run

	var maxSlot uint64
	haveSlot1, haveBoundary := false, false
	for _, c := range fs.Classes {
		slot := c.Slot()
		if slot == 1 {
			haveSlot1 = true // restore target cycle 0: rung 0, the reset state
		}
		if slot-1 == interval {
			haveBoundary = true // restore target cycle 5: exactly rung 1, zero delta
		}
		if slot > maxSlot {
			maxSlot = slot
		}
	}
	if !haveSlot1 {
		t.Error("want a class at slot 1 (injection at cycle 0)")
	}
	if !haveBoundary {
		t.Errorf("want a class at slot %d (injection exactly at a rung boundary)", interval+1)
	}
	if maxSlot != golden.Cycles-2 {
		// The final instructions are `sb` (writes only) and `halt`, so the
		// last read — the maximal possible slot — is two cycles earlier.
		t.Errorf("max slot = %d, want %d", maxSlot, golden.Cycles-2)
	}

	rerun, err := ResumeScan(target, golden, fs, Config{Strategy: StrategyRerun}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fork, err := ResumeScan(target, golden, fs, Config{Strategy: StrategyFork, ladderInterval: interval}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rerun.Outcomes {
		if fork.Outcomes[i] != rerun.Outcomes[i] {
			t.Errorf("class %d (slot %d): fork=%v rerun=%v",
				i, fs.Classes[i].Slot(), fork.Outcomes[i], rerun.Outcomes[i])
		}
	}
}

// TestForkConvergenceComposition pins the reconvergence fast path at
// Δ = 0: a fault that corrupts the serial output and then vanishes from
// the machine state (its RAM byte redefined, its register overwritten)
// makes the state match the golden state of its own cycle, so the fork
// provider composes the outcome from the golden trace instead of
// simulating the remainder. The composed outcome must preserve the
// divergence that already escaped (SDC) and the masking that already
// happened (No Effect), and the ladder.reconverged counter must account
// the shortcut — with none of them counted as shifted. The default
// configuration, whose probes are wider apart, must agree.
func TestForkConvergenceComposition(t *testing.T) {
	serial := int32(machine.PortSerial)
	prog := []isa.Instruction{
		{Op: isa.OpLb, Rd: 1, Rs: 0, Imm: 0},       // cycle 1: use of byte 0 — faults here escape to serial
		{Op: isa.OpSb, Rt: 1, Rs: 0, Imm: serial},  // cycle 2: emit it
		{Op: isa.OpLb, Rd: 2, Rs: 0, Imm: 1},       // cycle 3: use of byte 1 — faults here get masked
		{Op: isa.OpAndi, Rd: 2, Rs: 2, Imm: 0},     // cycle 4: mask to zero
		{Op: isa.OpSb, Rt: 2, Rs: 0, Imm: serial},  // cycle 5: emit the masked zero
		{Op: isa.OpSbi, Rs: 0, Imm: 0, Imm2: 0x3c}, // cycle 6: redefine byte 0 — RAM reconverges
		{Op: isa.OpSbi, Rs: 0, Imm: 1, Imm2: 0x2a}, // cycle 7: redefine byte 1
		{Op: isa.OpLi, Rd: 1, Imm: 0},              // cycle 8: redefine r1 — registers reconverge
		{Op: isa.OpLi, Rd: 2, Imm: 0},              // cycle 9
		{Op: isa.OpNop},                            // cycles 10..12: cross a rung boundary converged
		{Op: isa.OpNop},                            //
		{Op: isa.OpNop},                            //
		{Op: isa.OpLb, Rd: 3, Rs: 0, Imm: 0},       // cycle 13: late use keeps the space interesting
		{Op: isa.OpSb, Rt: 3, Rs: 0, Imm: serial},  // cycle 14
		{Op: isa.OpHalt},                           // cycle 15
	}
	target := Target{
		Name:  "reconverge",
		Code:  prog,
		Image: []byte{0xa5, 0x11, 0, 0},
		Mach:  machine.Config{RAMSize: 4},
	}
	golden, fs, err := target.PrepareSpace(pruning.SpaceMemory, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	rerun, err := ResumeScan(target, golden, fs, Config{Strategy: StrategyRerun}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Interval 4 spaces the probes four cycles apart at most: faults at
	// slots 1 and 3 reconverge by cycle 9 and must take the composition
	// fast path at a probe before the halt at cycle 15.
	reg := telemetry.New()
	fork, err := ResumeScan(target, golden, fs, Config{Strategy: StrategyFork, ladderInterval: 4, Telemetry: reg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sdc, masked := 0, 0
	for i, c := range fs.Classes {
		if fork.Outcomes[i] != rerun.Outcomes[i] {
			t.Errorf("class %d (slot %d): fork=%v rerun=%v",
				i, c.Slot(), fork.Outcomes[i], rerun.Outcomes[i])
		}
		switch c.Slot() {
		case 1: // corrupted byte escaped to serial before reconvergence
			if fork.Outcomes[i] != OutcomeSDC {
				t.Errorf("slot-1 class %d: %v, want SDC", i, fork.Outcomes[i])
			}
			sdc++
		case 3: // corruption masked before reconvergence
			if fork.Outcomes[i] != OutcomeNoEffect {
				t.Errorf("slot-3 class %d: %v, want No Effect", i, fork.Outcomes[i])
			}
			masked++
		}
	}
	if sdc == 0 || masked == 0 {
		t.Fatalf("fault space lacks the pinned classes (sdc=%d, masked=%d)", sdc, masked)
	}
	if got := reg.Counter("ladder.reconverged").Value(); got < uint64(sdc+masked) {
		t.Errorf("ladder.reconverged = %d, want >= %d (every slot-1 and slot-3 class)", got, sdc+masked)
	}
	if got := reg.Counter("ladder.reconverged_shifted").Value(); got != 0 {
		t.Errorf("ladder.reconverged_shifted = %d, want 0 (nothing in this program costs a cycle)", got)
	}
	if got := reg.Counter("fork.children").Value(); got != uint64(len(fs.Classes)) {
		t.Errorf("fork.children = %d, want one per class (%d)", got, len(fs.Classes))
	}

	wide, err := ResumeScan(target, golden, fs, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rerun.Outcomes {
		if wide.Outcomes[i] != rerun.Outcomes[i] {
			t.Errorf("default interval, class %d: fork=%v rerun=%v", i, wide.Outcomes[i], rerun.Outcomes[i])
		}
	}
}

// detourTarget is a program whose faults reconverge LATE: a flipped bit
// in the flag byte sends the run through a detour — `emits` bytes to the
// serial port, the flag repaired, the register cleared — and back onto
// the golden path `3 + 3*emits` cycles behind, in exactly the golden
// state of cycle 2. The tail is long enough for a probe to see that and
// ends with the golden run's own output.
func detourTarget(maxSerial int) Target {
	serial := int32(machine.PortSerial)
	prog := []isa.Instruction{
		{Op: isa.OpLb, Rd: 1, Rs: 0, Imm: 0},           // 0: the flag byte's use; golden value 0
		{Op: isa.OpBeq, Rs: 1, Rt: 0, Imm: 8},          // 1: golden path skips the detour
		{Op: isa.OpSbi, Rs: 0, Imm: serial, Imm2: 'x'}, // 2: detour: one byte per unit of the flipped value
		{Op: isa.OpAddi, Rd: 1, Rs: 1, Imm: -1},        // 3
		{Op: isa.OpBne, Rs: 1, Rt: 0, Imm: 2},          // 4
		{Op: isa.OpSbi, Rs: 0, Imm: 0, Imm2: 0},        // 5: repair the flag; r1 is 0 again
		{Op: isa.OpNop},                                // 6
		{Op: isa.OpNop},                                // 7
	}
	for i := 0; i < 12; i++ { // 8..19: the rejoined tail
		prog = append(prog, isa.Instruction{Op: isa.OpNop})
	}
	for _, c := range []byte("gold") {
		prog = append(prog, isa.Instruction{Op: isa.OpSbi, Rs: 0, Imm: serial, Imm2: int32(c)})
	}
	prog = append(prog, isa.Instruction{Op: isa.OpHalt})
	return Target{
		Name:  "detour",
		Code:  prog,
		Image: []byte{0, 0, 0, 0},
		Mach:  machine.Config{RAMSize: 4, MaxSerial: maxSerial},
	}
}

// scanPair runs one of the target's fault spaces under rerun and under fork
// (probes two cycles apart) and returns both outcome vectors with the
// fork scan's registry; the vectors are the test's subject, so it does
// not compare them.
func scanPair(t *testing.T, target Target, kind pruning.SpaceKind, cfg Config) (fs *pruning.FaultSpace, rerun, fork []Outcome, reg *telemetry.Registry) {
	t.Helper()
	golden, fs, err := target.PrepareSpace(kind, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Strategy = StrategyRerun
	r, err := ResumeScan(target, golden, fs, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg = telemetry.New()
	cfg.Strategy, cfg.ladderInterval, cfg.Telemetry = StrategyFork, 2, reg
	f, err := ResumeScan(target, golden, fs, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return fs, r.Outcomes, f.Outcomes, reg
}

// TestShiftedMatchBudgetGuard: a run that rejoins the golden run Δ cycles
// late halts Δ cycles late. Where that is past the timeout budget the run
// is a Timeout — as rerun finds by running it — and the match must not be
// composed into a halt; within the budget it is composed, shifted.
func TestShiftedMatchBudgetGuard(t *testing.T) {
	target := detourTarget(0)
	// Budget = golden cycles + 8: the one-byte detour (6 cycles late)
	// still halts within it, the two-byte detour (9 late) does not.
	fs, rerun, fork, reg := scanPair(t, target, pruning.SpaceMemory, Config{TimeoutFactor: 1, TimeoutSlack: 8})
	late, timeouts := 0, 0
	for i, c := range fs.Classes {
		if fork[i] != rerun[i] {
			t.Errorf("class %d (slot %d bit %d): fork=%v rerun=%v", i, c.Slot(), c.Bit, fork[i], rerun[i])
		}
		if c.Slot() != 1 || c.Bit >= 8 {
			continue
		}
		switch {
		case c.Bit == 0 && fork[i] != OutcomeSDC:
			t.Errorf("bit 0 (6 cycles late): %v, want SDC", fork[i])
		case c.Bit > 0 && fork[i] != OutcomeTimeout:
			t.Errorf("bit %d (>= 9 cycles late): %v, want Timeout", c.Bit, fork[i])
		}
		if c.Bit == 0 {
			late++
		} else {
			timeouts++
		}
	}
	if late != 1 || timeouts != 7 {
		t.Fatalf("fault space lacks the flag byte's classes (late=%d, timeouts=%d)", late, timeouts)
	}
	if got := reg.Counter("ladder.reconverged_shifted").Value(); got != 1 {
		t.Errorf("ladder.reconverged_shifted = %d, want 1 (bit 0 only; the later rejoins are past the budget)", got)
	}
	if h := reg.Snapshot().Histograms["ladder.shift_cycles"]; h.Count != 1 || h.MaxNs != 6000 {
		t.Errorf("ladder.shift_cycles = %+v, want one observation of 6 cycles (6 µs)", h)
	}
}

// TestShiftedMatchSerialCapGuard is the regression test for composing
// past the serial cap: a detour that fills the port to the cap rejoins
// the golden run, whose own output then raises ExcSerialLimit — Excepted,
// not Halted. The base outcome is SDC either way, but the bypass
// objective flags only halted runs, so an unguarded composition claims an
// attack the rerun oracle does not see.
func TestShiftedMatchSerialCapGuard(t *testing.T) {
	bypass, err := ObjectiveByName("bypass")
	if err != nil {
		t.Fatal(err)
	}
	// Cap 8, golden output 4 bytes: detours of 1, 2 and 4 bytes fit
	// (halt, bypass flagged), the 8-byte one fills the cap before the
	// golden tail, longer ones overflow inside the detour.
	fs, rerun, fork, reg := scanPair(t, detourTarget(8), pruning.SpaceMemory, Config{Objective: bypass})
	for i, c := range fs.Classes {
		if fork[i] != rerun[i] {
			t.Errorf("class %d (slot %d bit %d): fork=%v rerun=%v", i, c.Slot(), c.Bit, fork[i], rerun[i])
		}
		if c.Slot() != 1 || c.Bit >= 8 {
			continue
		}
		if want := OutcomeSDC | AttackFlag; c.Bit <= 2 && fork[i] != want {
			t.Errorf("bit %d (fits the cap): %v, want %v", c.Bit, fork[i], want)
		}
		if c.Bit >= 3 && fork[i] != OutcomeSDC {
			t.Errorf("bit %d (ends in the serial limit): %v, want unflagged SDC", c.Bit, fork[i])
		}
	}
	if got := reg.Counter("ladder.reconverged_shifted").Value(); got != 3 {
		t.Errorf("ladder.reconverged_shifted = %d, want 3 (the detours that fit the cap)", got)
	}
}

// TestForkLoopProof pins the other suffix shortcut: a fault that sends
// the program into a spin loop is classified Timeout by a state-
// recurrence proof, not by simulating the cycle budget — and identically
// to rerun, which does simulate it.
func TestForkLoopProof(t *testing.T) {
	serial := int32(machine.PortSerial)
	prog := []isa.Instruction{
		{Op: isa.OpLb, Rd: 1, Rs: 0, Imm: 0},      // cycle 1: flag byte, golden value 0
		{Op: isa.OpBne, Rs: 1, Rt: 0, Imm: 1},     // cycle 2: any flipped bit spins here forever
		{Op: isa.OpSb, Rt: 1, Rs: 0, Imm: serial}, // cycle 3
		{Op: isa.OpHalt},                          // cycle 4
	}
	target := Target{Name: "spin", Code: prog, Image: []byte{0, 0, 0, 0}, Mach: machine.Config{RAMSize: 4}}
	golden, fs, err := target.PrepareSpace(pruning.SpaceMemory, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	rerun, err := ResumeScan(target, golden, fs, Config{Strategy: StrategyRerun}, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	fork, err := ResumeScan(target, golden, fs, Config{Strategy: StrategyFork, ladderInterval: 2, Telemetry: reg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	timeouts := 0
	for i := range rerun.Outcomes {
		if fork.Outcomes[i] != rerun.Outcomes[i] {
			t.Errorf("class %d: fork=%v rerun=%v", i, fork.Outcomes[i], rerun.Outcomes[i])
		}
		if fork.Outcomes[i] == OutcomeTimeout {
			timeouts++
		}
	}
	if timeouts != 8 {
		t.Fatalf("timeouts = %d, want 8 (one per bit of the flag byte)", timeouts)
	}
	if got := reg.Counter("ladder.loop_proofs").Value(); got != uint64(timeouts) {
		t.Errorf("ladder.loop_proofs = %d, want %d (every Timeout proven, none simulated out)", got, timeouts)
	}
}

// TestForkShortProgram covers a golden run shorter than one rung
// interval and than the first probe spacing: the ladder degenerates to
// the single reset rung (one unit), a run that ends by itself is never
// probed, and every class must still classify identically to rerun.
func TestForkShortProgram(t *testing.T) {
	target := hiTarget(t)
	golden, fs := prepare(t, target)
	if golden.Cycles >= 100 {
		t.Fatalf("hi golden run unexpectedly long: %d cycles", golden.Cycles)
	}
	rerun, err := ResumeScan(target, golden, fs, Config{Strategy: StrategyRerun}, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	fork, err := ResumeScan(target, golden, fs, Config{Strategy: StrategyFork, ladderInterval: 100, Telemetry: reg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	halted := 0
	for i := range rerun.Outcomes {
		if fork.Outcomes[i] != rerun.Outcomes[i] {
			t.Errorf("class %d: fork=%v rerun=%v", i, fork.Outcomes[i], rerun.Outcomes[i])
		}
		if fork.Outcomes[i] != OutcomeTimeout {
			halted++
		}
	}
	if got := reg.Counter("ladder.reconverged").Value(); got != 0 || halted == 0 {
		t.Errorf("ladder.reconverged = %d over %d self-ending runs of a %d-cycle program, want 0: none reaches a probe",
			got, halted, golden.Cycles)
	}
}

// TestForkMatchesRerunRandomPrograms is the randomized counterpart to
// the fixed edge cases, across rung intervals from 1 to beyond the
// golden runtime.
func TestForkMatchesRerunRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		target := randomTarget(rng, 8+rng.Intn(12))
		golden, fs, err := target.PrepareSpace(pruning.SpaceMemory, 1<<12)
		if err != nil {
			t.Fatalf("trial %d: prepare: %v", trial, err)
		}
		rerun, err := ResumeScan(target, golden, fs, Config{Strategy: StrategyRerun}, nil)
		if err != nil {
			t.Fatal(err)
		}
		interval := uint64(1 + rng.Intn(int(golden.Cycles)+4))
		fork, err := ResumeScan(target, golden, fs, Config{Strategy: StrategyFork, ladderInterval: interval}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rerun.Outcomes {
			if fork.Outcomes[i] != rerun.Outcomes[i] {
				t.Fatalf("trial %d interval %d class %d: fork=%v rerun=%v",
					trial, interval, i, fork.Outcomes[i], rerun.Outcomes[i])
			}
		}
	}
}

// TestForkIntervalAllPrograms is the explicit-rung-spacing leg of the
// executor-equivalence matrix (DESIGN.md invariant 6): every bundled
// program, shrunk as the root package's matrix shrinks it, in every fault
// space, plus the matrix's eight hardened rows, whose experiments nearly
// all reconverge shifted. A 7-cycle spacing reshapes the fork carving —
// more rungs, smaller units — and, below the default probe spacing, makes
// the probes denser; outcomes must not care.
func TestForkIntervalAllPrograms(t *testing.T) {
	sizes := progs.Sizes{BinSemRounds: 1, SyncRounds: 1, SyncBufBytes: 16, ClockTicks: 2, ClockPeriod: 32,
		MboxMessages: 2, PreemptWork: 8, PreemptPeriod: 24, SortElements: 6}
	for _, name := range progs.Names() {
		spec, err := progs.Resolve(name, sizes)
		if err != nil {
			t.Fatal(err)
		}
		p, err := spec.Baseline()
		if err != nil {
			t.Fatal(err)
		}
		for kind := pruning.SpaceMemory; kind.Valid(); kind++ {
			checkForkInterval(t, name, p, kind)
		}
	}
	for _, row := range []struct {
		name  string
		tmr   bool
		space pruning.SpaceKind
	}{
		{"bin_sem2", false, pruning.SpaceMemory},
		{"sync2", false, pruning.SpaceMemory},
		{"clock1", false, pruning.SpaceMemory},
		{"preempt1", false, pruning.SpaceMemory},
		{"mbox1", false, pruning.SpaceMemory},
		{"bin_sem2", true, pruning.SpaceMemory},
		{"bin_sem2", false, pruning.SpaceRegisters},
		{"bin_sem2", false, pruning.SpacePC},
	} {
		spec, err := progs.Resolve(row.name, sizes)
		if err != nil {
			t.Fatal(err)
		}
		variant := "sum+dmr"
		if row.tmr {
			variant = "tmr"
		}
		label := row.name + "/" + variant
		p, err := spec.Variant(variant)
		if err != nil {
			t.Fatal(err)
		}
		if shifted := checkForkInterval(t, label, p, row.space); shifted == 0 {
			t.Errorf("%s %s: no experiment reconverged shifted: the row does not exercise the any-cycle match", label, row.space)
		}
	}
}

// checkForkInterval scans one program in one fault space with the fork
// provider at a 7-cycle rung spacing and predecode on, requires the
// outcomes of the rerun reference, and returns how many experiments the
// fork scan composed from a shifted match.
func checkForkInterval(t *testing.T, label string, p *asm.Program, kind pruning.SpaceKind) (shifted uint64) {
	t.Helper()
	target := Target{Name: p.Name, Code: p.Code, Image: p.Image,
		Mach: machine.Config{RAMSize: p.RAMSize, TimerPeriod: p.TimerPeriod, TimerVector: p.TimerVector}}
	golden, fs, err := target.PrepareSpace(kind, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	rerun, err := ResumeScan(target, golden, fs, Config{Strategy: StrategyRerun}, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	fork, err := ResumeScan(target, golden, fs, Config{Strategy: StrategyFork, ladderInterval: 7, Predecode: true, Telemetry: reg}, nil)
	if err != nil {
		t.Fatalf("%s %s: %v", label, kind, err)
	}
	for i := range rerun.Outcomes {
		if fork.Outcomes[i] != rerun.Outcomes[i] {
			t.Fatalf("%s %s class %d: fork/7+pre=%v rerun=%v", label, kind, i, fork.Outcomes[i], rerun.Outcomes[i])
		}
	}
	return reg.Counter("ladder.reconverged_shifted").Value()
}

func TestForkIntervalAutoTune(t *testing.T) {
	cases := []struct {
		explicit uint64
		cycles   uint64
		want     uint64
	}{
		{explicit: 7, cycles: 1 << 20, want: 7},           // explicit wins
		{explicit: 0, cycles: 8, want: MinLadderInterval}, // short run floors
		{explicit: 0, cycles: 4 * 64, want: 64},           // DefaultForkRungs target
		{explicit: 0, cycles: 4 * 1000, want: 1000},       //
		{explicit: 0, cycles: 0, want: MinLadderInterval}, // degenerate
	}
	for _, c := range cases {
		cfg := Config{ladderInterval: c.explicit}
		if got := cfg.forkInterval(c.cycles); got != c.want {
			t.Errorf("forkInterval(explicit=%d, cycles=%d) = %d, want %d",
				c.explicit, c.cycles, got, c.want)
		}
	}
}

// TestScanInterruptedUpFront: a scan whose Context is already cancelled
// runs nothing and reports ErrInterrupted, under either provider.
func TestScanInterruptedUpFront(t *testing.T) {
	target := hiTarget(t)
	golden, fs := prepare(t, target)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, strat := range []Strategy{StrategyFork, StrategyRerun} {
		_, err := ResumeScan(target, golden, fs, Config{Strategy: strat, Context: ctx}, nil)
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("%s: err = %v, want ErrInterrupted", strat, err)
		}
	}
}

// TestResetExperimentAllocFree: the brute-force reference experiment —
// restore, replay, flip, run out, classify — must not allocate at all.
func TestResetExperimentAllocFree(t *testing.T) {
	target := hiTarget(t)
	golden, fs := prepare(t, target)
	m, err := target.newMachine()
	if err != nil {
		t.Fatal(err)
	}
	budget := Config{}.withDefaults().timeoutBudget(golden.Cycles)
	p := newResetProvider(m, golden, budget, nil)
	_, flip, err := pruning.Lookup(fs.Kind)
	if err != nil {
		t.Fatal(err)
	}
	coords := []Coord{{Slot: fs.Classes[0].Slot(), Bit: fs.Classes[0].Bit}}
	run := func() {
		if o, err := inject(p, flip, coords); err != nil || int(o) >= NumOutcomes {
			t.Fatalf("outcome %d, err %v", o, err)
		}
	}
	run() // warm up lazily-allocated machine state
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("reset experiment allocates %.1f times per run, want 0", allocs)
	}
}

// TestSerialCapGuardSameCycle is the same bug where it predates shifted
// matching: a register fault redirects a loop's scratch store to the
// serial port — the same cycles, six bytes of flood — and the state is
// repaired right after, so the run rejoins the golden run at its own
// cycle (Δ = 0). Six bytes plus the golden four exceed the cap of eight.
func TestSerialCapGuardSameCycle(t *testing.T) {
	serial := int32(machine.PortSerial)
	prog := []isa.Instruction{
		{Op: isa.OpLi, Rd: 4, Imm: 0},           // 0: scratch address; bit 16 set makes it PortSerial
		{Op: isa.OpLi, Rd: 5, Imm: 6},           // 1
		{Op: isa.OpSb, Rt: 5, Rs: 4, Imm: 0},    // 2: the loop's store
		{Op: isa.OpAddi, Rd: 5, Rs: 5, Imm: -1}, // 3
		{Op: isa.OpBne, Rs: 5, Rt: 0, Imm: 2},   // 4
		{Op: isa.OpLi, Rd: 4, Imm: 0},           // 5: register repaired
		{Op: isa.OpSbi, Rs: 0, Imm: 0, Imm2: 0}, // 6: scratch byte repaired
	}
	for i := 0; i < 12; i++ {
		prog = append(prog, isa.Instruction{Op: isa.OpNop})
	}
	for _, c := range []byte("gold") {
		prog = append(prog, isa.Instruction{Op: isa.OpSbi, Rs: 0, Imm: serial, Imm2: int32(c)})
	}
	prog = append(prog, isa.Instruction{Op: isa.OpHalt})
	target := Target{Name: "redirect", Code: prog, Image: []byte{0, 0, 0, 0}, Mach: machine.Config{RAMSize: 4, MaxSerial: 8}}
	bypass, err := ObjectiveByName("bypass")
	if err != nil {
		t.Fatal(err)
	}
	fs, rerun, fork, reg := scanPair(t, target, pruning.SpaceRegisters, Config{Objective: bypass})
	const r4bit16 = (4-1)*32 + 16
	flagged, capped := 0, 0
	for i, c := range fs.Classes {
		if fork[i] != rerun[i] {
			t.Errorf("class %d (slot %d bit %d): fork=%v rerun=%v", i, c.Slot(), c.Bit, fork[i], rerun[i])
		}
		if c.Bit == r4bit16 && rerun[i] == OutcomeSDC|AttackFlag {
			flagged++ // a flood short enough to halt under the cap
		}
		if c.Bit == r4bit16 && rerun[i] == OutcomeSDC {
			capped++ // a flood the golden tail pushes over the cap
		}
	}
	if flagged == 0 || capped == 0 {
		t.Fatalf("fault space lacks the redirect classes (flagged=%d, capped=%d)", flagged, capped)
	}
	if got := reg.Counter("ladder.reconverged").Value(); got == 0 {
		t.Error("ladder.reconverged = 0: nothing was composed, the guard was not exercised")
	}
}
