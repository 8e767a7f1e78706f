package campaign

import (
	"math/rand"
	"testing"

	"faultspace/internal/asm"
	"faultspace/internal/isa"
	"faultspace/internal/machine"
	"faultspace/internal/pruning"
	"faultspace/internal/trace"
)

// assembleTarget builds a Target from assembly source.
func assembleTarget(t *testing.T, name, src string) Target {
	t.Helper()
	p, err := asm.Assemble(name, src)
	if err != nil {
		t.Fatal(err)
	}
	return Target{
		Name:  p.Name,
		Code:  p.Code,
		Image: p.Image,
		Mach:  machine.Config{RAMSize: p.RAMSize},
	}
}

// hiTarget is the paper's "Hi" program (§IV-A), small enough to reason
// about exhaustively: w = 128, F = 48.
func hiTarget(t *testing.T) Target {
	t.Helper()
	return assembleTarget(t, "hi", `
        .ram    2
        .equ    SERIAL, 0x10000
        .text
        sbi     'H', 0(r0)
        nop
        sbi     'i', 1(r0)
        lb      r1, 0(r0)
        sb      r1, SERIAL(r0)
        lb      r2, 1(r0)
        sb      r2, SERIAL(r0)
        halt
`)
}

func prepare(t *testing.T, target Target) (*trace.Golden, *pruning.FaultSpace) {
	t.Helper()
	golden, fs, err := target.PrepareSpace(pruning.SpaceMemory, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	return golden, fs
}

func TestFullScanHi(t *testing.T) {
	target := hiTarget(t)
	golden, fs := prepare(t, target)
	if golden.Cycles != 8 || fs.Size() != 128 {
		t.Fatalf("golden: cycles=%d w=%d, want 8/128", golden.Cycles, fs.Size())
	}
	res, err := ResumeScan(target, golden, fs, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Count()
	if got := NonBenign(c.Weights); got != 48 {
		t.Errorf("failure weight = %d, want 48", got)
	}
	if got := NonBenign(c.Classes); got != 16 {
		t.Errorf("failure classes = %d, want 16 (2 bytes x 8 bits)", got)
	}
	// All failures must be SDC: the corrupted letters still print.
	counts := c.Classes
	if counts[OutcomeSDC] != 16 {
		t.Errorf("SDC classes = %d, want 16 (%v)", counts[OutcomeSDC], counts)
	}
	full := c.Weights
	full[OutcomeNoEffect] += fs.KnownNoEffect
	var sum uint64
	for _, c := range full {
		sum += c
	}
	if sum != fs.Size() {
		t.Errorf("full-space counts sum to %d, want %d", sum, fs.Size())
	}
}

func TestScanStrategiesAgree(t *testing.T) {
	target := hiTarget(t)
	golden, fs := prepare(t, target)
	fork, err := ResumeScan(target, golden, fs, Config{Strategy: StrategyFork}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rerun, err := ResumeScan(target, golden, fs, Config{Strategy: StrategyRerun}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fork.Outcomes {
		if fork.Outcomes[i] != rerun.Outcomes[i] {
			t.Fatalf("class %d: fork=%v rerun=%v", i, fork.Outcomes[i], rerun.Outcomes[i])
		}
	}
}

func TestFullScanDeterminism(t *testing.T) {
	target := hiTarget(t)
	golden, fs := prepare(t, target)
	a, err := ResumeScan(target, golden, fs, Config{Workers: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ResumeScan(target, golden, fs, Config{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Outcomes {
		if a.Outcomes[i] != b.Outcomes[i] {
			t.Fatalf("class %d differs across worker counts", i)
		}
	}
}

// TestPrunedScanEqualsBruteForce is the def/use equivalence theorem as a
// property test: for random programs, running one experiment at EVERY raw
// (slot, bit) coordinate gives exactly the per-coordinate outcomes implied
// by the pruned scan (class outcome for members, No Effect for pruned
// coordinates).
func TestPrunedScanEqualsBruteForce(t *testing.T) {
	if testing.Short() {
		t.Skip("brute-force scan is slow")
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 12; trial++ {
		target := randomTarget(rng, 8+rng.Intn(8))
		golden, fs, err := target.PrepareSpace(pruning.SpaceMemory, 1<<12)
		if err != nil {
			// Random programs occasionally fail the golden run (e.g. run
			// past ROM without halt is prevented by construction, so this
			// is unexpected).
			t.Fatalf("trial %d: prepare: %v", trial, err)
		}
		res, err := ResumeScan(target, golden, fs, Config{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{}.withDefaults()
		for slot := uint64(1); slot <= golden.Cycles; slot++ {
			for bit := uint64(0); bit < golden.RAMBits; bit++ {
				got, err := RunMulti(target, golden, cfg, pruning.SpaceMemory, []Coord{{Slot: slot, Bit: bit}})
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
					t.Fatalf("trial %d: coordinate (%d, %d): brute=%v pruned=%v (inClass=%v)",
						trial, slot, bit, got, want, inClass)
				}
			}
		}
	}
}

// randomTarget builds a random straight-line program over 4 bytes of RAM
// that always halts. Straight-line keeps the brute-force scan cheap while
// still exercising every memory-access shape.
func randomTarget(rng *rand.Rand, n int) Target {
	const ramSize = 4
	prog := make([]isa.Instruction, 0, n+1)
	reg := func() uint8 { return uint8(1 + rng.Intn(6)) }
	for i := 0; i < n; i++ {
		switch rng.Intn(10) {
		case 0, 1:
			prog = append(prog, isa.Instruction{Op: isa.OpSbi, Rs: 0, Imm: int32(rng.Intn(ramSize)), Imm2: int32(rng.Intn(256))})
		case 2:
			prog = append(prog, isa.Instruction{Op: isa.OpSwi, Rs: 0, Imm: 0, Imm2: int32(rng.Intn(2048))})
		case 3, 4:
			prog = append(prog, isa.Instruction{Op: isa.OpLb, Rd: reg(), Rs: 0, Imm: int32(rng.Intn(ramSize))})
		case 5:
			prog = append(prog, isa.Instruction{Op: isa.OpLw, Rd: reg(), Rs: 0, Imm: 0})
		case 6:
			prog = append(prog, isa.Instruction{Op: isa.OpAdd, Rd: reg(), Rs: reg(), Rt: reg()})
		case 7:
			// Emit a data-dependent byte: faults become visible as SDC.
			prog = append(prog, isa.Instruction{Op: isa.OpSb, Rt: reg(), Rs: 0, Imm: int32(machine.PortSerial)})
		case 8:
			prog = append(prog, isa.Instruction{Op: isa.OpSb, Rt: reg(), Rs: 0, Imm: int32(rng.Intn(ramSize))})
		case 9:
			prog = append(prog, isa.Instruction{Op: isa.OpXori, Rd: reg(), Rs: reg(), Imm: int32(rng.Intn(255))})
		}
	}
	prog = append(prog, isa.Instruction{Op: isa.OpHalt})
	return Target{
		Name:  "random",
		Code:  prog,
		Image: nil,
		Mach:  machine.Config{RAMSize: ramSize},
	}
}

func TestRunSingleValidation(t *testing.T) {
	target := hiTarget(t)
	golden, _ := prepare(t, target)
	if _, err := RunMulti(target, golden, Config{}, pruning.SpaceMemory, []Coord{{Slot: 0, Bit: 0}}); err == nil {
		t.Error("slot 0 must be rejected")
	}
	if _, err := RunMulti(target, golden, Config{}, pruning.SpaceMemory, []Coord{{Slot: golden.Cycles + 1, Bit: 0}}); err == nil {
		t.Error("slot past golden runtime must be rejected")
	}
	if _, err := RunMulti(target, golden, Config{}, pruning.SpaceMemory, []Coord{{Slot: 1, Bit: 1 << 20}}); err == nil {
		t.Error("bit outside RAM must be rejected")
	}
}

func TestConfigValidation(t *testing.T) {
	target := hiTarget(t)
	golden, fs := prepare(t, target)
	if _, err := ResumeScan(target, golden, fs, Config{TimeoutFactor: 0.5}, nil); err == nil {
		t.Error("TimeoutFactor < 1 must be rejected")
	}
	if _, err := ResumeScan(target, golden, fs, Config{Workers: -1}, nil); err == nil {
		t.Error("negative Workers must be rejected")
	}
	if _, err := ResumeScan(target, golden, fs, Config{Strategy: Strategy(9)}, nil); err == nil {
		t.Error("unknown strategy must be rejected")
	}
}

func TestEmptyFaultSpaceScan(t *testing.T) {
	// A program that never touches RAM has zero classes.
	target := assembleTarget(t, "noram", `
        .ram 4
        li r1, 1
        halt
`)
	golden, fs := prepare(t, target)
	if len(fs.Classes) != 0 {
		t.Fatalf("classes = %d, want 0", len(fs.Classes))
	}
	res, err := ResumeScan(target, golden, fs, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if NonBenign(res.Count().Weights) != 0 || len(res.Outcomes) != 0 {
		t.Error("empty scan must have no outcomes")
	}
}
