package machine

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"testing"

	"faultspace/internal/isa"
)

// stateHash digests the complete mutable machine state. Two machines with
// equal hashes are indistinguishable to any campaign observer.
func stateHash(m *Machine) [32]byte {
	h := sha256.New()
	h.Write(m.ram)
	var buf [8]byte
	wr := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, r := range m.regs {
		wr(uint64(r))
	}
	wr(uint64(m.pc))
	wr(m.cycles)
	wr(uint64(m.status))
	wr(uint64(m.exc))
	wr(uint64(len(m.serial)))
	h.Write(m.serial)
	wr(m.detects)
	wr(m.corrects)
	if m.inIRQ {
		wr(1)
	} else {
		wr(0)
	}
	wr(uint64(m.savedPC))
	wr(m.fireAt)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// runWithLadder executes m from its current state, capturing a rung every
// interval cycles while the machine is still running — the same capture
// loop the campaign's fork provider uses during the golden run.
func runWithLadder(m *Machine, interval, maxCycles uint64) *Ladder {
	l := NewLadder(m)
	next := m.Cycles() + interval
	for m.Status() == StatusRunning && m.Cycles() < maxCycles {
		if _, err := m.Step(); err != nil {
			break
		}
		if m.Status() == StatusRunning && m.Cycles() == next {
			l.Capture(m)
			next += interval
		}
	}
	return l
}

// TestCursorRestoreEquivalence restores rungs in random order onto one
// shared worker machine — dirtying it with partial runs and bit flips in
// between, exactly like back-to-back experiments — and checks the full
// state hash against a reference machine replayed from reset.
func TestCursorRestoreEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		ramSize := []int{32, 256, 1024}[trial%3]
		prog := buildRandomProgram(rng, ramSize, 120)
		golden, err := New(Config{RAMSize: ramSize}, prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		interval := uint64(1 + rng.Intn(16))
		l := runWithLadder(golden, interval, 1000)

		worker, err := New(Config{RAMSize: ramSize}, prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		cur := l.NewCursor(worker)
		for i := 0; i < 30; i++ {
			r := rng.Intn(l.Rungs())
			cur.Restore(r)

			ref, err := New(Config{RAMSize: ramSize}, prog, nil)
			if err != nil {
				t.Fatal(err)
			}
			ref.Run(l.RungCycle(r))
			if stateHash(worker) != stateHash(ref) {
				t.Fatalf("trial %d step %d: restored rung %d (cycle %d) diverges from replay",
					trial, i, r, l.RungCycle(r))
			}

			// Dirty the worker like an experiment would: inject a fault
			// and execute part of the remaining run.
			if err := worker.FlipBit(uint64(rng.Intn(ramSize * 8))); err != nil {
				t.Fatal(err)
			}
			worker.Run(worker.Cycles() + uint64(rng.Intn(int(interval)+4)))
		}
	}
}

func TestLadderFind(t *testing.T) {
	prog := make([]isa.Instruction, 0, 65)
	for i := 0; i < 64; i++ {
		prog = append(prog, isa.Instruction{Op: isa.OpNop})
	}
	prog = append(prog, isa.Instruction{Op: isa.OpHalt})
	m, err := New(Config{RAMSize: 8}, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	l := runWithLadder(m, 10, 1000) // rungs at cycles 0, 10, 20, ..., 60
	if l.Rungs() != 7 {
		t.Fatalf("rungs = %d, want 7", l.Rungs())
	}
	cases := []struct {
		cycle uint64
		rung  int
	}{
		{0, 0}, {1, 0}, {9, 0}, {10, 1}, {11, 1}, {19, 1},
		{20, 2}, {59, 5}, {60, 6}, {64, 6}, {1000, 6},
	}
	for _, c := range cases {
		if got := l.Find(c.cycle); got != c.rung {
			t.Errorf("Find(%d) = %d, want %d", c.cycle, got, c.rung)
		}
		if got := l.RungCycle(l.Find(c.cycle)); got > c.cycle {
			t.Errorf("Find(%d) returned rung above the cycle (%d)", c.cycle, got)
		}
	}
}

func TestLadderCaptureStaleCyclePanics(t *testing.T) {
	m, err := New(Config{RAMSize: 8}, []isa.Instruction{{Op: isa.OpNop}, {Op: isa.OpHalt}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLadder(m)
	defer func() {
		if recover() == nil {
			t.Error("Capture without forward progress must panic")
		}
	}()
	l.Capture(m)
}

func TestNewCursorMismatchedRAMPanics(t *testing.T) {
	prog := []isa.Instruction{{Op: isa.OpHalt}}
	m1, _ := New(Config{RAMSize: 8}, prog, nil)
	m2, _ := New(Config{RAMSize: 16}, prog, nil)
	l := NewLadder(m1)
	defer func() {
		if recover() == nil {
			t.Error("NewCursor with mismatched RAM size must panic")
		}
	}()
	l.NewCursor(m2)
}

// FuzzDeltaRestore drives random restore/dirty sequences through a ladder
// Cursor against replay references. It must never panic, and every rung
// restore must hash identically to an uninterrupted run reaching the
// same cycle, however the worker was dirtied since the last restore.
func FuzzDeltaRestore(f *testing.F) {
	f.Add(int64(1), uint8(4), []byte{0, 3, 9, 1})
	f.Add(int64(7), uint8(0), []byte{255, 128, 2})
	f.Add(int64(42), uint8(31), []byte{5})
	f.Fuzz(func(t *testing.T, seed int64, rawInterval uint8, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		ramSize := []int{16, 64, 256, 1024}[rng.Intn(4)]
		prog := buildRandomProgram(rng, ramSize, 60)
		interval := uint64(rawInterval%32) + 1

		golden, err := New(Config{RAMSize: ramSize}, prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		l := runWithLadder(golden, interval, 1000)

		// Reference hash per rung, from replay-from-reset.
		refs := make([][32]byte, l.Rungs())
		for r := range refs {
			ref, err := New(Config{RAMSize: ramSize}, prog, nil)
			if err != nil {
				t.Fatal(err)
			}
			ref.Run(l.RungCycle(r))
			refs[r] = stateHash(ref)
		}

		worker, err := New(Config{RAMSize: ramSize}, prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		cur := l.NewCursor(worker)
		if len(ops) > 64 {
			ops = ops[:64]
		}
		for i, b := range ops {
			r := int(b) % l.Rungs()
			cur.Restore(r)
			if stateHash(worker) != refs[r] {
				t.Fatalf("op %d: rung %d (cycle %d) diverges from replay", i, r, l.RungCycle(r))
			}
			if b%3 == 0 {
				if err := worker.FlipBit(uint64(b) % worker.RAMBits()); err != nil {
					t.Fatal(err)
				}
			}
			worker.Run(worker.Cycles() + uint64(b%7))
		}
	})
}
