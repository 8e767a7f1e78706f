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
		if !fast.PredecodeEnabled() || plain.PredecodeEnabled() {
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
	if !c.PredecodeEnabled() {
		t.Fatal("restore lost predecode")
	}
	ref.SetPredecode(false)
	if ref.PredecodeEnabled() {
		t.Fatal("SetPredecode(false) did not disable")
	}
	c.Run(4000)
	ref.Run(4000)
	if stateHash(c) != stateHash(ref) {
		t.Fatal("restored machine with predecode diverged from the plain one")
	}
}

// TestVonNeumannMatchesHarvard: without stores into the code region, a
// von Neumann machine behaves exactly like the Harvard machine running
// the same program (modulo the code bytes visible in its RAM).
func TestVonNeumannMatchesHarvard(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		// Data accesses stay below 64+8 bytes; the code region sits far
		// above at 256, so the program can never touch it. Both machines
		// get the same RAM size so out-of-range behavior coincides too.
		dataSize := 64
		prog := buildBranchyProgram(rng, dataSize, 60)
		codeBase := uint32(256)
		cfg := Config{RAMSize: 256 + len(prog)*8, MaxSerial: 64}
		hv, err := New(cfg, prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		vn, err := NewVonNeumann(cfg, prog, nil, codeBase)
		if err != nil {
			t.Fatal(err)
		}
		if !vn.VonNeumann() || hv.VonNeumann() {
			t.Fatal("VonNeumann flag wrong")
		}
		hs := hv.Run(4000)
		vs := vn.Run(4000)
		// Programs only address [0, dataSize) plus ports, so behavior
		// must coincide even though the vn RAM is larger.
		if hs != vs || hv.Cycles() != vn.Cycles() || hv.PC() != vn.PC() ||
			hv.Exception() != vn.Exception() || string(hv.Serial()) != string(vn.Serial()) {
			t.Fatalf("trial %d: vn diverged from Harvard: %v/%v cycle %d/%d pc %d/%d",
				trial, hs, vs, hv.Cycles(), vn.Cycles(), hv.PC(), vn.PC())
		}
	}
}

// buildSelfModifyProgram generates a program that stores into its own
// code region: the fuzz workload for the predecode cache's precise
// invalidation.
func buildSelfModifyProgram(rng *rand.Rand, codeBase uint32, n int) []isa.Instruction {
	prog := make([]isa.Instruction, 0, n+1)
	reg := func() uint8 { return uint8(1 + rng.Intn(10)) }
	codeBytes := int32(n+1) * 8
	for i := 0; i < n; i++ {
		// Address somewhere in (or just around) the code region.
		codeAddr := int32(codeBase) + int32(rng.Intn(int(codeBytes)+8)) - 4
		switch rng.Intn(8) {
		case 0:
			prog = append(prog, isa.Instruction{Op: isa.OpLi, Rd: reg(), Imm: int32(rng.Uint32())})
		case 1:
			prog = append(prog, isa.Instruction{Op: isa.OpAddi, Rd: reg(), Rs: reg(), Imm: int32(rng.Intn(256))})
		case 2:
			// Byte store into code: usually corrupts one instruction.
			prog = append(prog, isa.Instruction{Op: isa.OpSb, Rt: reg(), Rs: 0, Imm: codeAddr})
		case 3:
			// Word store into code (often misaligned: also a behavior).
			prog = append(prog, isa.Instruction{Op: isa.OpSw, Rt: reg(), Rs: 0, Imm: codeAddr})
		case 4:
			// Store an immediate zero-ish word: bytes 0 decode to OpInvalid.
			prog = append(prog, isa.Instruction{Op: isa.OpSwi, Rs: 0, Imm: codeAddr &^ 3, Imm2: int32(rng.Intn(4096)) - 2048})
		case 5:
			prog = append(prog, isa.Instruction{Op: isa.OpLb, Rd: reg(), Rs: 0, Imm: codeAddr})
		case 6:
			prog = append(prog, isa.Instruction{Op: isa.OpBne, Rs: reg(), Rt: reg(), Imm: int32(rng.Intn(n + 1))})
		case 7:
			prog = append(prog, isa.Instruction{Op: isa.OpSb, Rt: reg(), Rs: 0, Imm: int32(PortSerial)})
		}
	}
	prog = append(prog, isa.Instruction{Op: isa.OpHalt})
	return prog
}

// FuzzPredecodeSelfModify differentially tests the pre-decoded fast
// path on von Neumann machines against the plain decoder: random
// programs store into their own code region mid-run (and the harness
// flips random code-region bits between chunks, like an injected
// fault), so the predecode cache must invalidate precisely — any staleness
// shows up as a state divergence from the machine that decodes RAM on
// every fetch.
func FuzzPredecodeSelfModify(f *testing.F) {
	f.Add(int64(1), []byte{0, 3, 9, 1})
	f.Add(int64(7), []byte{255, 128, 2, 77, 13})
	f.Add(int64(42), []byte{5})
	f.Fuzz(func(t *testing.T, seed int64, steps []byte) {
		rng := rand.New(rand.NewSource(seed))
		codeBase := uint32(64)
		n := 24 + rng.Intn(40)
		prog := buildSelfModifyProgram(rng, codeBase, n)
		cfg := Config{RAMSize: 64 + (len(prog)+2)*8, MaxSerial: 32}
		if rng.Intn(2) == 1 {
			cfg.TimerPeriod = uint64(5 + rng.Intn(20))
			cfg.TimerVector = uint32(rng.Intn(len(prog)))
		}
		plain, err := NewVonNeumann(cfg, prog, nil, codeBase)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := NewVonNeumann(cfg, prog, nil, codeBase)
		if err != nil {
			t.Fatal(err)
		}
		fast.SetPredecode(true)

		codeBits := uint64(len(prog)) * 8 * 8
		target := uint64(0)
		if len(steps) > 64 {
			steps = steps[:64]
		}
		for _, b := range steps {
			target += uint64(b%61) + 1
			sp := plain.Run(target)
			sf := fast.Run(target)
			if sp != sf || stateHash(plain) != stateHash(fast) {
				t.Fatalf("predecode diverged from plain decode at cycle %d/%d: status %v/%v pc %d/%d exc %v/%v",
					plain.Cycles(), fast.Cycles(), sp, sf, plain.PC(), fast.PC(),
					plain.Exception(), fast.Exception())
			}
			if sp != StatusRunning {
				return
			}
			// Injected fault into the code region, applied to both.
			bit := uint64(codeBase)*8 + uint64(b)*2654435761%codeBits
			if err := plain.FlipBit(bit); err != nil {
				t.Fatal(err)
			}
			if err := fast.FlipBit(bit); err != nil {
				t.Fatal(err)
			}
		}
		if fast.PredecodeInvalidations() == 0 && len(steps) > 0 && target > 0 {
			// FlipBit into the code region must have invalidated at least
			// once (the flips above always land inside it).
			t.Fatal("no predecode invalidation despite code-region faults")
		}
	})
}

// TestPredecodeInvalidationCounter pins the counter semantics: Harvard
// machines never invalidate; von Neumann machines count store and
// restore events that clobber cached instructions.
func TestPredecodeInvalidationCounter(t *testing.T) {
	prog := []isa.Instruction{
		{Op: isa.OpSbi, Rs: 0, Imm: 64, Imm2: 0}, // store into own code (instruction 8 region? no: addr 64 = codeBase)
		{Op: isa.OpHalt},
	}
	vn, err := NewVonNeumann(Config{RAMSize: 128}, prog, nil, 64)
	if err != nil {
		t.Fatal(err)
	}
	vn.SetPredecode(true)
	vn.Run(10)
	if got := vn.PredecodeInvalidations(); got != 1 {
		t.Fatalf("vn invalidations = %d, want 1", got)
	}

	hv, err := New(Config{RAMSize: 128}, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	hv.SetPredecode(true)
	hv.Run(10)
	if err := hv.FlipBit(0); err != nil {
		t.Fatal(err)
	}
	if got := hv.PredecodeInvalidations(); got != 0 {
		t.Fatalf("harvard invalidations = %d, want 0", got)
	}
}
