package campaign

import (
	"fmt"
	"math/rand"
	"testing"

	"faultspace/internal/isa"
	"faultspace/internal/machine"
	"faultspace/internal/pruning"
	"faultspace/internal/telemetry"
	"faultspace/internal/trace"
)

// goldenFS is a prepared fault space with its golden run.
type goldenFS struct {
	g  *trace.Golden
	fs *pruning.FaultSpace
}

// memoTarget is a random program long enough for its faulty runs to pass
// several memo grid cycles: a random body over six registers and a
// 32-byte RAM — loads, stores, arithmetic, output and detect/correct
// signals — run in a counted loop, then the registers written out. Half
// the programs take a timer interrupt whose handler counts ticks in RAM.
// A fault whose first effect is overwritten leaves a run that later
// classes' runs meet at the same cycle, which is what the memo finds.
func memoTarget(rng *rand.Rand) Target {
	const ramSize = 32
	const counter = 7 // the loop counter; the body leaves it alone
	reg := func() uint8 { return uint8(1 + rng.Intn(6)) }
	addr := func() int32 { return int32(rng.Intn(ramSize - 1)) }
	prog := []isa.Instruction{{Op: isa.OpLi, Rd: counter, Imm: int32(12 + rng.Intn(40))}}
	top := int32(len(prog))
	for n := 4 + rng.Intn(10); n > 0; n-- {
		var ins isa.Instruction
		switch rng.Intn(12) {
		case 0, 1, 2:
			ins = isa.Instruction{Op: isa.OpLb, Rd: reg(), Rs: 0, Imm: addr()}
		case 3, 4:
			ins = isa.Instruction{Op: isa.OpSb, Rt: reg(), Rs: 0, Imm: addr()}
		case 5:
			ins = isa.Instruction{Op: isa.OpAdd, Rd: reg(), Rs: reg(), Rt: reg()}
		case 6:
			ins = isa.Instruction{Op: isa.OpXori, Rd: reg(), Rs: reg(), Imm: int32(rng.Intn(255))}
		case 7:
			ins = isa.Instruction{Op: isa.OpAndi, Rd: reg(), Rs: reg(), Imm: int32(rng.Intn(255))}
		case 8:
			ins = isa.Instruction{Op: isa.OpLi, Rd: reg(), Imm: int32(rng.Intn(255))}
		case 9:
			ins = isa.Instruction{Op: isa.OpSb, Rt: reg(), Rs: 0, Imm: int32(machine.PortSerial)}
		case 10:
			ins = isa.Instruction{Op: isa.OpSbi, Rs: 0, Imm: int32(machine.PortDetect), Imm2: 1}
		case 11:
			ins = isa.Instruction{Op: isa.OpSbi, Rs: 0, Imm: int32(machine.PortCorrect), Imm2: 1}
		}
		prog = append(prog, ins)
	}
	prog = append(prog,
		isa.Instruction{Op: isa.OpAddi, Rd: counter, Rs: counter, Imm: -1},
		isa.Instruction{Op: isa.OpBne, Rs: counter, Rt: 0, Imm: top})
	for r := uint8(1); r <= 6; r++ {
		prog = append(prog, isa.Instruction{Op: isa.OpSb, Rt: r, Rs: 0, Imm: int32(machine.PortSerial)})
	}
	prog = append(prog, isa.Instruction{Op: isa.OpHalt})
	mach := machine.Config{RAMSize: ramSize}
	if rng.Intn(2) == 0 {
		const tick = ramSize - 1
		mach.TimerPeriod, mach.TimerVector = uint64(30+rng.Intn(60)), uint32(len(prog))
		prog = append(prog,
			isa.Instruction{Op: isa.OpLb, Rd: 8, Rs: 0, Imm: tick},
			isa.Instruction{Op: isa.OpAddi, Rd: 8, Rs: 8, Imm: 1},
			isa.Instruction{Op: isa.OpSb, Rt: 8, Rs: 0, Imm: tick},
			isa.Instruction{Op: isa.OpLi, Rd: 8, Imm: 0},
			isa.Instruction{Op: isa.OpSret})
	}
	return Target{Name: "memo", Code: prog, Mach: mach}
}

// memoScan scans the target's fault space under the fork strategy and
// requires the rerun reference's outcomes class by class. It returns the
// scan's memo probes and hits.
func memoScan(t *testing.T, label string, target Target, golden *goldenFS, rerun []Outcome, cfg Config) (probes, hits uint64) {
	t.Helper()
	reg := telemetry.New()
	cfg.Strategy, cfg.Telemetry = StrategyFork, reg
	fork, err := FullScan(target, golden.g, golden.fs, cfg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for i := range rerun {
		if fork.Outcomes[i] != rerun[i] {
			c := golden.fs.Classes[i]
			t.Fatalf("%s class %d (slot %d bit %d): fork=%v rerun=%v", label, i, c.Slot(), c.Bit, fork.Outcomes[i], rerun[i])
		}
	}
	return reg.Counter("ladder.memo_probes").Value(), reg.Counter("ladder.memo_hits").Value()
}

// TestMemoMatchesRerunRandomPrograms is the trajectory memo's property
// test: on random looping programs, in all six fault spaces, at one and
// two workers, the fork provider — golden index, loop detector and memo
// together — must classify every class exactly as the rerun oracle does,
// and the memo must have composed runs in every space, or the comparison
// says nothing about it.
func TestMemoMatchesRerunRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	hits := map[pruning.SpaceKind]uint64{}
	for trial := 0; trial < 8; trial++ {
		target := memoTarget(rng)
		for kind := pruning.SpaceMemory; kind.Valid(); kind++ {
			g, fs, err := target.PrepareSpace(kind, 1<<16)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			rerun, err := FullScan(target, g, fs, Config{Strategy: StrategyRerun})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2} {
				label := fmt.Sprintf("trial %d %s workers %d", trial, kind, workers)
				_, h := memoScan(t, label, target, &goldenFS{g, fs}, rerun.Outcomes, Config{Workers: workers})
				hits[kind] += h
			}
		}
	}
	for kind := pruning.SpaceMemory; kind.Valid(); kind++ {
		if hits[kind] == 0 {
			t.Errorf("%s: no run was composed from the memo; the comparison is vacuous there", kind)
		}
	}
}

// TestMemoHashCollisions is the memo's soundness seam, as
// TestMatchHashCollisions is the golden index's: with every state hashed
// alike, each probe walks every stored state of the table, and only the
// full compare tells them apart. Outcomes must still be the rerun
// oracle's, and at one worker the memo must find exactly the hits and
// make exactly the probes the real hash does.
func TestMemoHashCollisions(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	var hits uint64
	for trial := 0; trial < 4; trial++ {
		target := memoTarget(rng)
		for kind := pruning.SpaceMemory; kind.Valid(); kind++ {
			g, fs, err := target.PrepareSpace(kind, 1<<16)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			rerun, err := FullScan(target, g, fs, Config{Strategy: StrategyRerun})
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("trial %d %s", trial, kind)
			gfs := &goldenFS{g, fs}
			probes, h := memoScan(t, label, target, gfs, rerun.Outcomes, Config{Workers: 1})
			cProbes, cHits := memoScan(t, label+" constant hash", target, gfs, rerun.Outcomes, Config{Workers: 1, memoCollide: true})
			if cProbes != probes || cHits != h {
				t.Fatalf("%s: constant hash made %d probes with %d hits, the real hash %d with %d", label, cProbes, cHits, probes, h)
			}
			hits += h
		}
	}
	if hits == 0 {
		t.Fatal("no run was composed from the memo; the comparison is vacuous")
	}
}

// TestMemoSerialLengthKey pins why the serial length is part of a memo
// state: two runs that meet in the same state at the same cycle continue
// alike, except that the one with more output reaches the serial cap
// first. A flipped bit of the flag byte sends the run down one of two
// detours of equal length that leave the same residue in RAM; the bit-0
// detour also writes a byte. Under a cap of exactly the golden output,
// the bit-0 run overflows it (SDC, an exception), the others halt with
// the golden output (No Effect) — and compose from each other's memo
// states, never from the bit-0 run's.
func TestMemoSerialLengthKey(t *testing.T) {
	serial := int32(machine.PortSerial)
	prog := []isa.Instruction{
		{Op: isa.OpLb, Rd: 1, Rs: 0, Imm: 0},           // 0: the flag byte's use; golden value 0
		{Op: isa.OpBeq, Rs: 1, Rt: 0, Imm: 12},         // 1: golden path skips both detours
		{Op: isa.OpAndi, Rd: 2, Rs: 1, Imm: 1},         // 2
		{Op: isa.OpBeq, Rs: 2, Rt: 0, Imm: 6},          // 3
		{Op: isa.OpSbi, Rs: 0, Imm: serial, Imm2: 'x'}, // 4: bit 0's detour writes a byte
		{Op: isa.OpJmp, Imm: 8},                        // 5
		{Op: isa.OpNop},                                // 6: the other bits' detour, as long
		{Op: isa.OpNop},                                // 7
		{Op: isa.OpSbi, Rs: 0, Imm: 1, Imm2: 1},        // 8: a residue both detours leave
		{Op: isa.OpSbi, Rs: 0, Imm: 0, Imm2: 0},        // 9: the flag repaired
		{Op: isa.OpLi, Rd: 1, Imm: 0},                  // 10
		{Op: isa.OpLi, Rd: 2, Imm: 0},                  // 11
		{Op: isa.OpLi, Rd: 3, Imm: 150},                // 12: a tail past two grid cycles
		{Op: isa.OpAddi, Rd: 3, Rs: 3, Imm: -1},        // 13
		{Op: isa.OpBne, Rs: 3, Rt: 0, Imm: 13},         // 14
	}
	for _, c := range []byte("gold") {
		prog = append(prog, isa.Instruction{Op: isa.OpSbi, Rs: 0, Imm: serial, Imm2: int32(c)})
	}
	prog = append(prog, isa.Instruction{Op: isa.OpHalt})
	target := Target{Name: "serial-key", Code: prog, Image: []byte{0, 0, 0, 0}, Mach: machine.Config{RAMSize: 4, MaxSerial: 4}}
	g, fs, err := target.PrepareSpace(pruning.SpaceMemory, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	rerun, err := FullScan(target, g, fs, Config{Strategy: StrategyRerun})
	if err != nil {
		t.Fatal(err)
	}
	_, hits := memoScan(t, "serial-key", target, &goldenFS{g, fs}, rerun.Outcomes, Config{Workers: 1})
	flag := 0
	for i, c := range fs.Classes {
		if c.Slot() != 1 || c.Bit >= 8 {
			continue
		}
		flag++
		if want := OutcomeNoEffect; c.Bit == 0 {
			if rerun.Outcomes[i] != OutcomeSDC {
				t.Errorf("bit 0 (overflows the cap): %v, want SDC", rerun.Outcomes[i])
			}
		} else if rerun.Outcomes[i] != want {
			t.Errorf("bit %d (halts under the cap): %v, want %v", c.Bit, rerun.Outcomes[i], want)
		}
	}
	if flag != 8 {
		t.Fatalf("fault space lacks the flag byte's classes (%d of 8)", flag)
	}
	if hits < 6 {
		t.Errorf("ladder.memo_hits = %d, want >= 6 (bits 2-7 rejoin bit 1's run)", hits)
	}
}
