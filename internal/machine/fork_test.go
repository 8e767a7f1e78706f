package machine

import (
	"math/rand"
	"testing"

	"faultspace/internal/isa"
)

// buildCountingStoreProgram loops forever storing an incrementing counter
// to RAM[0]: every iteration re-dirties the same page.
func buildCountingStoreProgram() []isa.Instruction {
	return []isa.Instruction{
		{Op: isa.OpAddi, Rd: 1, Rs: 1, Imm: 1},
		{Op: isa.OpSb, Rs: 0, Rt: 1, Imm: 0},
		{Op: isa.OpJmp, Imm: 0},
	}
}

// TestForkerEquivalence is the differential-copy property test: a child
// produced by Fork must be state-identical to a full Snapshot/Restore of
// the parent, across a monotone parent advance with arbitrary child
// dirtying (fault flips + partial suffix runs) in between — exactly the
// fork scan's access pattern.
func TestForkerEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 12; trial++ {
		ramSize := []int{32, 300, 512, 1024}[trial%4]
		prog := buildRandomProgram(rng, ramSize, 120)
		parent, err := New(Config{RAMSize: ramSize}, prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		child, err := New(Config{RAMSize: ramSize}, prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		f := NewForker(parent, child)
		for i := 0; i < 40 && parent.Status() == StatusRunning; i++ {
			parent.Run(parent.Cycles() + uint64(rng.Intn(9)))
			f.Fork()
			// Reference: a full snapshot round-trip of the parent.
			ref, err := New(Config{RAMSize: ramSize}, prog, nil)
			if err != nil {
				t.Fatal(err)
			}
			ref.Restore(parent.Snapshot())
			if stateHash(child) != stateHash(ref) {
				t.Fatalf("trial %d fork %d: child diverges from parent snapshot at cycle %d",
					trial, i, parent.Cycles())
			}
			// Dirty the child like an experiment would: inject and run a
			// partial faulty suffix.
			if err := child.FlipBit(uint64(rng.Intn(ramSize * 8))); err != nil {
				t.Fatal(err)
			}
			child.Run(child.Cycles() + uint64(rng.Intn(20)))
		}
	}
}

// TestForkerRepeatedPageWrites pins the bug a naive "newly dirtied since
// the last fork" delta misses: the parent writing the SAME page in two
// consecutive inter-fork windows must still propagate the second write.
func TestForkerRepeatedPageWrites(t *testing.T) {
	// Program: stores i to RAM[0] forever — every cycle dirties page 0.
	prog := buildCountingStoreProgram()
	ramSize := 4 * PageSize
	parent, err := New(Config{RAMSize: ramSize}, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	child, err := New(Config{RAMSize: ramSize}, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := NewForker(parent, child)
	for i := 0; i < 8; i++ {
		parent.Run(parent.Cycles() + 4)
		f.Fork()
		if stateHash(child) != stateHash(parent) {
			t.Fatalf("fork %d: child diverges after repeated writes to one page", i)
		}
		// Child does NOT write anything here: the next fork's page-0 copy
		// must come from the parent-side dirty set alone.
	}
}

// TestForkerInvalidateAfterCursorRestore covers the fork scan's batch
// boundary: the parent is repositioned on a ladder rung (a restore that
// rewrites it wholesale behind the forker), the forker is invalidated,
// and the next Fork must still be exact.
func TestForkerInvalidateAfterCursorRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	ramSize := 1024
	prog := buildRandomProgram(rng, ramSize, 120)
	golden, err := New(Config{RAMSize: ramSize}, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	l := runWithLadder(golden, 8, 1000)
	if l.Rungs() < 3 {
		t.Fatalf("degenerate ladder (%d rungs)", l.Rungs())
	}
	parent, err := New(Config{RAMSize: ramSize}, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	child, err := New(Config{RAMSize: ramSize}, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	cur := l.NewCursor(parent)
	f := NewForker(parent, child)
	for i := 0; i < 20; i++ {
		r := rng.Intn(l.Rungs())
		cur.Restore(r)
		f.Invalidate()
		for j := 0; j < 3; j++ {
			parent.Run(parent.Cycles() + uint64(rng.Intn(6)))
			f.Fork()
			ref, err := New(Config{RAMSize: ramSize}, prog, nil)
			if err != nil {
				t.Fatal(err)
			}
			ref.Run(parent.Cycles())
			if stateHash(child) != stateHash(ref) {
				t.Fatalf("batch %d fork %d: child diverges from replay at cycle %d",
					i, j, parent.Cycles())
			}
			if err := child.FlipBit(uint64(rng.Intn(ramSize * 8))); err != nil {
				t.Fatal(err)
			}
			child.Run(child.Cycles() + uint64(rng.Intn(12)))
		}
	}
}

func TestNewForkerMismatchedRAMPanics(t *testing.T) {
	prog := buildCountingStoreProgram()
	m1, _ := New(Config{RAMSize: 8}, prog, nil)
	m2, _ := New(Config{RAMSize: 16}, prog, nil)
	defer func() {
		if recover() == nil {
			t.Error("NewForker with mismatched RAM size must panic")
		}
	}()
	NewForker(m1, m2)
}

// FuzzForkClone drives random fork/dirty/advance sequences against
// replay references: every forked child must hash identically to an
// uninterrupted run reaching the parent's cycle. One op in five first
// repositions the parent on a random ladder rung and invalidates the
// forker, the fork provider's sequence at every unit.
func FuzzForkClone(f *testing.F) {
	f.Add(int64(1), []byte{0, 3, 9, 1})
	f.Add(int64(7), []byte{255, 128, 2})
	f.Add(int64(42), []byte{5, 5, 5, 5, 5})
	f.Add(int64(9), []byte{4, 30, 14, 2, 9, 19, 7, 24})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		ramSize := []int{16, 64, 256, 1024}[rng.Intn(4)]
		prog := buildRandomProgram(rng, ramSize, 60)
		golden, err := New(Config{RAMSize: ramSize}, prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		l := runWithLadder(golden, uint64(1+rng.Intn(16)), 1000)
		parent, err := New(Config{RAMSize: ramSize}, prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		child, err := New(Config{RAMSize: ramSize}, prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		cur := l.NewCursor(parent)
		fk := NewForker(parent, child)
		if len(ops) > 64 {
			ops = ops[:64]
		}
		for i, b := range ops {
			if b%5 == 4 {
				cur.Restore(int(b/5) % l.Rungs())
				fk.Invalidate()
			}
			if parent.Status() != StatusRunning {
				break
			}
			parent.Run(parent.Cycles() + uint64(b%11))
			fk.Fork()
			ref, err := New(Config{RAMSize: ramSize}, prog, nil)
			if err != nil {
				t.Fatal(err)
			}
			ref.Run(parent.Cycles())
			if stateHash(child) != stateHash(ref) {
				t.Fatalf("op %d: forked child diverges from replay at cycle %d",
					i, parent.Cycles())
			}
			if b%3 == 0 {
				if err := child.FlipBit(uint64(b) % child.RAMBits()); err != nil {
					t.Fatal(err)
				}
			}
			child.Run(child.Cycles() + uint64(b%7))
		}
	})
}
