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

// TestDirtyDeltaEqualsFullSnapshot is the dirty-page tracking property
// test: at every rung, the RAM image reconstructed from the ladder's
// delta views hashes identically to the live machine's full RAM.
func TestDirtyDeltaEqualsFullSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 12; trial++ {
		ramSize := []int{32, 300, 512, 1024}[trial%4]
		prog := buildRandomProgram(rng, ramSize, 100)
		m, err := New(Config{RAMSize: ramSize}, prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		l := NewLadder(m)
		interval := uint64(1 + rng.Intn(10))
		next := interval
		for m.Status() == StatusRunning && m.Cycles() < 1000 {
			if _, err := m.Step(); err != nil {
				break
			}
			if m.Status() == StatusRunning && m.Cycles() == next {
				l.Capture(m)
				next += interval

				view := l.views[len(l.views)-1]
				h := sha256.New()
				for _, page := range view {
					h.Write(page)
				}
				want := sha256.Sum256(m.ram)
				var got [32]byte
				copy(got[:], h.Sum(nil))
				if got != want {
					t.Fatalf("trial %d: delta view diverges from RAM at cycle %d",
						trial, m.Cycles())
				}
			}
		}
		if l.Rungs() < 2 {
			t.Fatalf("trial %d: degenerate ladder (%d rungs)", trial, l.Rungs())
		}
	}
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

// TestCursorSurvivesFullRestore checks the conservative dirty marking:
// a full Machine.Restore rewrites RAM behind the cursor's back, and the
// next cursor restore must still produce the exact rung state.
func TestCursorSurvivesFullRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	ramSize := 1024
	prog := buildRandomProgram(rng, ramSize, 100)
	golden, err := New(Config{RAMSize: ramSize}, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	l := runWithLadder(golden, 8, 1000)
	if l.Rungs() < 3 {
		t.Fatalf("degenerate ladder (%d rungs)", l.Rungs())
	}

	worker, err := New(Config{RAMSize: ramSize}, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	scratch := worker.Snapshot()
	cur := l.NewCursor(worker)
	cur.Restore(l.Rungs() - 1)

	// Rewrite the whole machine state outside the cursor's knowledge.
	worker.Restore(scratch)
	worker.Run(3)

	r := 1
	cur.Restore(r)
	ref, err := New(Config{RAMSize: ramSize}, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(l.RungCycle(r))
	if stateHash(worker) != stateHash(ref) {
		t.Fatal("cursor restore after full Restore diverges from replay")
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

// TestLadderPageSharing verifies delta capture actually shares unchanged
// pages: a program that only ever writes one page must store ~1 extra
// page per rung, not a full RAM image per rung.
func TestLadderPageSharing(t *testing.T) {
	ramSize := 4 * PageSize
	prog := make([]isa.Instruction, 0, 65)
	for i := 0; i < 64; i++ {
		// All stores land in page 0.
		prog = append(prog, isa.Instruction{Op: isa.OpSbi, Rs: 0, Imm: int32(i % PageSize), Imm2: int32(i)})
	}
	prog = append(prog, isa.Instruction{Op: isa.OpHalt})
	m, err := New(Config{RAMSize: ramSize}, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	l := runWithLadder(m, 4, 1000)
	full := l.Rungs() * numPages(ramSize)
	want := numPages(ramSize) + (l.Rungs() - 1) // rung 0 full + 1 dirty page per capture
	if got := l.PagesStored(); got != want {
		t.Errorf("PagesStored = %d, want %d (full snapshots would be %d)", got, want, full)
	}
	// And the shared pages must really be shared backing arrays.
	for i := 1; i < len(l.views); i++ {
		for p := 1; p < numPages(ramSize); p++ {
			if &l.views[i][p][0] != &l.views[i-1][p][0] {
				t.Fatalf("rung %d page %d: untouched page was copied", i, p)
			}
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

// FuzzDeltaRestore drives random restore/dirty sequences against replay
// references. It must never panic, and every restored state must hash
// identically to an uninterrupted run reaching the same cycle.
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
