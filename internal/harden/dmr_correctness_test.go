package harden

import (
	"fmt"
	"math/rand"
	"testing"

	"faultspace/internal/asm"
	"faultspace/internal/machine"
)

// TestDMRSingleFaultCorrectness is the core correctness property of the
// SUM+DMR mechanism (DESIGN.md invariant 5): for a protected word, ANY
// single-bit flip in the primary, the replica or the checksum word —
// injected at any cycle between the protected store and the protected
// load — must leave the loaded value intact and the run benign.
//
// The test builds a program that pst-stores a random value, idles a few
// cycles, pld-loads it back and prints all four bytes. It then flips every
// bit of all three words at every possible injection slot between store
// and load and requires golden output every time.
func TestDMRSingleFaultCorrectness(t *testing.T) {
	const (
		primaryAddr   = 0
		replicaOffset = 16
		checkOffset   = 32
		ramSize       = 48
	)
	rng := rand.New(rand.NewSource(99))
	v := SumDMR{ReplicaOffset: replicaOffset, CheckOffset: checkOffset}

	for trial := 0; trial < 8; trial++ {
		value := rng.Uint32()
		src := fmt.Sprintf(`
        .ram    %d
        .equ    SERIAL, 0x10000
        li      r1, %d
        pst     r1, %d(r0)
        nop
        nop
        nop
        pld     r2, %d(r0)
        sb      r2, SERIAL(r0)
        shri    r3, r2, 8
        sb      r3, SERIAL(r0)
        shri    r3, r2, 16
        sb      r3, SERIAL(r0)
        shri    r3, r2, 24
        sb      r3, SERIAL(r0)
        halt
`, ramSize, int32(value), primaryAddr, primaryAddr)

		stmts, err := asm.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		expanded, err := v.Apply(stmts)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := asm.AssembleStmts("dmr", expanded)
		if err != nil {
			t.Fatal(err)
		}

		// Golden run.
		golden, err := machine.New(machine.Config{RAMSize: ramSize}, prog.Code, prog.Image)
		if err != nil {
			t.Fatal(err)
		}
		if st := golden.Run(10000); st != machine.StatusHalted {
			t.Fatalf("golden run: %v", st)
		}
		goldenOut := string(golden.Serial())
		goldenCycles := golden.Cycles()

		// The pst finishes by cycle ~6 (li + 4-instruction expansion); the
		// pld starts after the nops. Inject at every slot in between, on
		// every bit of all three words.
		// Find the pld start conservatively: after the store sequence
		// (5 instructions: li + 4 stores) up to the cycle of the first
		// load. We inject at slots [6, 9] (after the stores, before the
		// pld fast path begins at instruction 9).
		for slot := uint64(6); slot <= 9; slot++ {
			for _, base := range []uint64{primaryAddr, primaryAddr + replicaOffset, primaryAddr + checkOffset} {
				for bit := uint64(0); bit < 32; bit++ {
					m, err := machine.New(machine.Config{RAMSize: ramSize}, prog.Code, prog.Image)
					if err != nil {
						t.Fatal(err)
					}
					m.Run(slot - 1)
					if err := m.FlipBit(base*8 + bit); err != nil {
						t.Fatal(err)
					}
					if st := m.Run(4 * goldenCycles); st != machine.StatusHalted {
						t.Fatalf("slot %d word %d bit %d: status %v", slot, base, bit, st)
					}
					if got := string(m.Serial()); got != goldenOut {
						t.Fatalf("slot %d word %d bit %d: output %q, want %q",
							slot, base, bit, got, goldenOut)
					}
				}
			}
		}
	}
}

// TestDMRCorrectionSignalled verifies that a flip in the primary between
// store and load triggers the correction signal and repairs memory.
func TestDMRCorrectionSignalled(t *testing.T) {
	const (
		replicaOffset = 16
		checkOffset   = 32
		ramSize       = 48
	)
	v := SumDMR{ReplicaOffset: replicaOffset, CheckOffset: checkOffset}
	src := `
        .ram    48
        li      r1, 0x1234
        pst     r1, 0(r0)
        nop
        pld     r2, 0(r0)
        halt
`
	stmts, err := asm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	expanded, err := v.Apply(stmts)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.AssembleStmts("dmr", expanded)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(machine.Config{RAMSize: ramSize}, prog.Code, prog.Image)
	if err != nil {
		t.Fatal(err)
	}
	// Run past the store sequence (li + 4 instructions), flip primary bit 2.
	m.Run(6)
	if err := m.FlipBit(2); err != nil {
		t.Fatal(err)
	}
	if st := m.Run(1000); st != machine.StatusHalted {
		t.Fatalf("status %v", st)
	}
	if m.CorrectCount() != 1 {
		t.Errorf("correct count = %d, want 1", m.CorrectCount())
	}
	if m.Reg(2) != 0x1234 {
		t.Errorf("loaded value = %#x, want 0x1234", m.Reg(2))
	}
	// Memory fully repaired: primary, replica and checksum consistent.
	ram, err := m.ReadRAM(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := uint32(ram[0]) | uint32(ram[1])<<8 | uint32(ram[2])<<16 | uint32(ram[3])<<24; got != 0x1234 {
		t.Errorf("primary after repair = %#x", got)
	}
}

// TestPchkScrubsLatentFault verifies the region check of both mechanisms:
// a corrupted replica is repaired by pchk even if the word is never
// pld-loaded afterwards.
func TestPchkScrubsLatentFault(t *testing.T) {
	for _, c := range []struct {
		v      Variant
		src    string
		stored uint64 // cycles past li, the pst expansion and the nop
	}{
		// The checksum words of never-stored (all-zero) region words must
		// be pre-initialized to ~0 or pchk would scrub them as phantom
		// errors.
		{SumDMR{ReplicaOffset: 16, CheckOffset: 32, RegionBase: 0, RegionWords: 4}, `
        .ram    48
        .data
        .org    32
        .word   -1, -1, -1, -1
        .text
        li      r1, 0x77
        pst     r1, 0(r0)
        nop
        pchk
        halt
`, 6},
		// TMR's third copies of never-stored words are plain zeros.
		{TMR{Copy2Offset: 16, Copy3Offset: 32, RegionBase: 0, RegionWords: 4}, `
        .ram    48
        li      r1, 0x77
        pst     r1, 0(r0)
        nop
        pchk
        halt
`, 5},
	} {
		stmts, err := asm.Parse(c.src)
		if err != nil {
			t.Fatal(err)
		}
		expanded, err := c.v.Apply(stmts)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := asm.AssembleStmts("pchk", expanded)
		if err != nil {
			t.Fatal(err)
		}
		m, err := machine.New(machine.Config{RAMSize: 48}, prog.Code, prog.Image)
		if err != nil {
			t.Fatal(err)
		}
		m.Run(c.stored)
		if err := m.FlipBit(16 * 8); err != nil { // replica word, bit 0
			t.Fatal(err)
		}
		if st := m.Run(1000); st != machine.StatusHalted {
			t.Fatalf("%s: status %v (exc %v)", c.v.Name(), st, m.Exception())
		}
		if m.CorrectCount() != 1 {
			t.Errorf("%s: correct count = %d, want 1", c.v.Name(), m.CorrectCount())
		}
		ram, _ := m.ReadRAM(16, 1)
		if ram[0] != 0x77 {
			t.Errorf("%s: replica after scrub = %#x, want 0x77", c.v.Name(), ram[0])
		}
	}
}
