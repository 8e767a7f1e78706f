package machine

import (
	"math/rand"
	"testing"

	"faultspace/internal/isa"
)

// buildBranchyProgram generates a random program exercising the whole
// dispatch surface the predecode fast path lowers: ALU ops, loads and
// stores (including misaligned and MMIO-port targets), branches, jumps,
// calls and — when a timer is configured — the interrupt-handler ops.
// Programs may loop forever, run off the end (BadPC) or except; every
// such ending is a behavior the plain and pre-decoded interpreters
// must agree on.
func buildBranchyProgram(rng *rand.Rand, ramSize, n int) []isa.Instruction {
	prog := make([]isa.Instruction, 0, n+1)
	reg := func() uint8 { return uint8(1 + rng.Intn(10)) }
	for i := 0; i < n; i++ {
		addr := int32(rng.Intn(ramSize + 8)) // occasionally out of range
		word := int32(rng.Intn(ramSize/4+2)) * 4
		target := int32(rng.Intn(n + 2)) // occasionally just past the end
		switch rng.Intn(16) {
		case 0:
			prog = append(prog, isa.Instruction{Op: isa.OpLi, Rd: reg(), Imm: int32(rng.Uint32())})
		case 1:
			prog = append(prog, isa.Instruction{Op: isa.OpAdd, Rd: reg(), Rs: reg(), Rt: reg()})
		case 2:
			prog = append(prog, isa.Instruction{Op: isa.OpXor, Rd: reg(), Rs: reg(), Rt: reg()})
		case 3:
			prog = append(prog, isa.Instruction{Op: isa.OpShli, Rd: reg(), Rs: reg(), Imm: int32(rng.Intn(64))})
		case 4:
			prog = append(prog, isa.Instruction{Op: isa.OpSlti, Rd: reg(), Rs: reg(), Imm: int32(rng.Int31()) - 1<<30})
		case 5:
			prog = append(prog, isa.Instruction{Op: isa.OpSb, Rt: reg(), Rs: 0, Imm: addr})
		case 6:
			prog = append(prog, isa.Instruction{Op: isa.OpLb, Rd: reg(), Rs: 0, Imm: addr})
		case 7:
			prog = append(prog, isa.Instruction{Op: isa.OpSw, Rt: reg(), Rs: 0, Imm: word})
		case 8:
			prog = append(prog, isa.Instruction{Op: isa.OpLw, Rd: reg(), Rs: 0, Imm: word})
		case 9:
			prog = append(prog, isa.Instruction{Op: isa.OpSwi, Rs: 0, Imm: word, Imm2: int32(rng.Intn(4096)) - 2048})
		case 10:
			prog = append(prog, isa.Instruction{Op: isa.OpBne, Rs: reg(), Rt: reg(), Imm: target})
		case 11:
			prog = append(prog, isa.Instruction{Op: isa.OpBltu, Rs: reg(), Rt: reg(), Imm: target})
		case 12:
			prog = append(prog, isa.Instruction{Op: isa.OpJal, Imm: target})
		case 13:
			prog = append(prog, isa.Instruction{Op: isa.OpJr, Rs: 15})
		case 14:
			port := []int32{int32(PortSerial), int32(PortDetect), int32(PortCorrect)}[rng.Intn(3)]
			prog = append(prog, isa.Instruction{Op: isa.OpSb, Rt: reg(), Rs: 0, Imm: port})
		case 15:
			prog = append(prog, isa.Instruction{Op: isa.OpMul, Rd: reg(), Rs: reg(), Rt: reg()})
		}
	}
	prog = append(prog, isa.Instruction{Op: isa.OpHalt})
	return prog
}

// runLockstep drives two machines through the same run in random
// absolute-cycle increments and compares their complete state at every
// pause. Returns at termination or maxCycles.
func runLockstep(t *testing.T, rng *rand.Rand, a, b *Machine, maxCycles uint64) {
	t.Helper()
	for target := uint64(0); target < maxCycles; {
		target += uint64(1 + rng.Intn(97))
		if target > maxCycles {
			target = maxCycles
		}
		sa := a.Run(target)
		sb := b.Run(target)
		if sa != sb {
			t.Fatalf("status diverged at target %d: %v vs %v (cycles %d vs %d)",
				target, sa, sb, a.Cycles(), b.Cycles())
		}
		if stateHash(a) != stateHash(b) {
			t.Fatalf("state diverged at target %d (cycle %d, pc %d vs %d, exc %v vs %v)",
				target, a.Cycles(), a.PC(), b.PC(), a.Exception(), b.Exception())
		}
		if sa != StatusRunning {
			return
		}
	}
}

// TestPredecodeEquivalenceRandomPrograms pins the core fast-path
// invariant: Run over the pre-decoded stream is bit-for-bit identical
// to the plain Step loop, across random programs, random pause points
// and (half the time) a timer-interrupt handler.
func TestPredecodeEquivalenceRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		ramSize := []int{16, 64, 256, 1024}[rng.Intn(4)]
		prog := buildBranchyProgram(rng, ramSize, 40+rng.Intn(80))
		cfg := Config{RAMSize: ramSize, MaxSerial: 64}
		if trial%2 == 1 {
			// Interrupt-heavy variant: vector into the program body so the
			// handler is arbitrary code (sret is usually illegal there —
			// also a behavior to agree on). Some trials get a proper
			// handler by prepending sret-reachable code.
			cfg.TimerPeriod = uint64(3 + rng.Intn(17))
			cfg.TimerVector = uint32(rng.Intn(len(prog)))
			if trial%4 == 3 {
				handler := []isa.Instruction{
					{Op: isa.OpAddi, Rd: 9, Rs: 9, Imm: 1},
					{Op: isa.OpRdspc, Rd: 10},
					{Op: isa.OpWrspc, Rs: 10},
					{Op: isa.OpSret},
				}
				shifted := make([]isa.Instruction, 0, len(handler)+len(prog))
				shifted = append(shifted, handler...)
				shifted = append(shifted, prog...)
				prog = shifted
				cfg.TimerVector = 0
			}
		}
		plain, err := New(cfg, prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := New(cfg, prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		fast.SetPredecode(true)
		if !fast.predecodeEnabled() || plain.predecodeEnabled() {
			t.Fatal("SetPredecode state wrong")
		}
		runLockstep(t, rng, plain, fast, 4000)
	}
}

// TestPredecodeToggleAndClone checks that disabling predecode falls back
// to the plain loop and that a machine restored mid-run from a snapshot
// of a pre-decoding one continues identically with its own cache or
// with none.
func TestPredecodeToggleAndClone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	prog := buildBranchyProgram(rng, 64, 50)
	m, err := New(Config{RAMSize: 64}, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.SetPredecode(true)
	m.Run(100)
	restored := func() *Machine {
		c, err := New(Config{RAMSize: 64}, prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		c.SetPredecode(true)
		c.Restore(m.Snapshot())
		return c
	}
	c, ref := restored(), restored()
	if !c.predecodeEnabled() {
		t.Fatal("restore lost predecode")
	}
	ref.SetPredecode(false)
	if ref.predecodeEnabled() {
		t.Fatal("SetPredecode(false) did not disable")
	}
	c.Run(4000)
	ref.Run(4000)
	if stateHash(c) != stateHash(ref) {
		t.Fatal("restored machine with predecode diverged from the plain one")
	}
}
