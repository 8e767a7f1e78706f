package machine

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"faultspace/internal/isa"
)

// memoRun drives the rig's child to its end under a budget, offering its
// state to the memo at every grid-th absolute cycle, and closes the run
// in the memo with the remainder it ended by: a hit's, or its own. It
// returns the remainder and whether it came from a hit, with the child
// left where the run was settled.
func memoRun(tr *TrajectoryMemo, r *matchRig, grid, budget uint64) (Remainder, bool) {
	c := r.child
	for next := (c.cycles/grid + 1) * grid; next < budget; next += grid {
		if c.Run(next) != StatusRunning {
			break
		}
		if rem, ok := tr.Recall(r.matcher); ok {
			tr.Close(c, rem)
			return rem, true
		}
	}
	c.Run(budget)
	rem := Remainder{Status: c.status, Exc: c.exc}
	tr.Close(c, rem)
	return rem, false
}

// TestMemoHitsComposeExactly: on self-repairing programs with and without
// a timer, a run that the memo reports in an earlier run's state ends,
// when run out, exactly as the composed remainder says — status,
// exception, and for a halt the child's output and counters so far plus
// the remainder's. Faults are drawn from a few bits flipped at many
// cycles, so that later runs meet earlier ones.
func TestMemoHitsComposeExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, period := range []uint64{0, 41} {
		hits := 0
		prog, vector := buildHealingProgram(rng, 64, 80, period > 0)
		cfg := Config{RAMSize: 64, TimerPeriod: period, TimerVector: vector, MaxSerial: 96}
		r := newMatchRig(t, cfg, prog, goldenIndexBudget, ^uint64(0))
		tr := NewTrajectoryMemo(cfg.RAMSize, ^uint64(0))
		defer tr.Release()
		budget := 2*r.golden.cycles + 64
		for f := uint64(0); f < r.golden.cycles-1; f += 3 {
			r.fork(t, f)
			if err := r.child.FlipBit(uint64(rng.Intn(6 * 8))); err != nil {
				t.Fatal(err)
			}
			rem, hit := memoRun(tr, r, 16, budget)
			if !hit {
				continue
			}
			hits++
			c := r.child
			out := mustNew(t, cfg, prog)
			out.Restore(c.Snapshot())
			out.Run(budget)
			if out.status != rem.Status || out.exc != rem.Exc {
				t.Fatalf("fork at %d: hit at cycle %d composed %v/%v, the run ended %v/%v", f, c.cycles, rem.Status, rem.Exc, out.status, out.exc)
			}
			if rem.Status != StatusHalted {
				continue
			}
			want := append(append([]byte(nil), c.serial...), rem.Serial...)
			if !bytes.Equal(out.serial, want) || out.detects != c.detects+rem.Detects || out.corrects != c.corrects+rem.Corrects {
				t.Fatalf("fork at %d: hit at cycle %d composed %q %d/%d, the run ended %q %d/%d", f, c.cycles,
					want, c.detects+rem.Detects, c.corrects+rem.Corrects, out.serial, out.detects, out.corrects)
			}
		}
		if hits == 0 {
			t.Fatalf("timer period %d: no run was in an earlier run's state; the test is vacuous", period)
		}
	}
}

// TestMemoHitAllocFree: a probe that finds an earlier run's state, and
// the close after it, allocate nothing.
func TestMemoHitAllocFree(t *testing.T) {
	prog, vector := buildHealingProgram(rand.New(rand.NewSource(46)), 64, 40, false)
	cfg := Config{RAMSize: 64, TimerVector: vector}
	r := newMatchRig(t, cfg, prog, goldenIndexBudget, ^uint64(0))
	tr := NewTrajectoryMemo(cfg.RAMSize, ^uint64(0))
	defer tr.Release()
	run := func() (Remainder, bool) {
		r.fork(t, 5)
		if err := r.child.FlipBit(40); err != nil {
			t.Fatal(err)
		}
		return memoRun(tr, r, 16, 4*r.golden.cycles)
	}
	if _, hit := run(); hit {
		t.Fatal("the first run hit an empty memo")
	}
	if _, hit := run(); !hit {
		t.Fatal("the same experiment again did not hit")
	}
	if allocs := testing.AllocsPerRun(100, func() { run() }); allocs != 0 {
		t.Errorf("a memo hit allocates %.1f times per run, want 0", allocs)
	}
}

// TestMemoBudget: whatever the RAM size, a store filled past its entry
// bound holds at most memoBudget bytes, and an emptied store starts over.
func TestMemoBudget(t *testing.T) {
	for _, ramSize := range []int{2, 624, 1 << 16} {
		tr := NewTrajectoryMemo(ramSize, ^uint64(0))
		limit := tr.maxEntries*(memoEntryBytes+ramSize) + tr.maxSerial
		if limit > memoBudget {
			t.Errorf("RAM %d B: %d entries and %d B of output may take %d B, budget %d", ramSize, tr.maxEntries, tr.maxSerial, limit, memoBudget)
		}
		if ramSize > 1<<10 {
			tr.Release()
			continue
		}
		m := mustNew(t, Config{RAMSize: ramSize}, []isa.Instruction{{Op: isa.OpHalt}})
		for i := 0; i < tr.maxEntries+10; i++ {
			m.cycles = uint64(i)
			tr.insert(m, memoHash(m.keyHash(), 0, m.cycles, 0))
		}
		if len(tr.entries) != 10 {
			t.Errorf("RAM %d B: %d entries after filling %d past the bound, want 10", ramSize, len(tr.entries), 10)
		}
		held := cap(tr.entries)*int(unsafe.Sizeof(memoEntry{})) + cap(tr.ram) + 8*len(tr.table) +
			cap(tr.ends)*int(unsafe.Sizeof(memoEnd{})) + cap(tr.serial)
		if held > memoBudget || tr.Bytes() > held {
			t.Errorf("RAM %d B: store holds %d B (contents %d B), budget %d", ramSize, held, tr.Bytes(), memoBudget)
		}
		tr.Release()
	}
}

// memoHeld is what a store holds: its slabs' capacities and its table.
func memoHeld(tr *TrajectoryMemo) int {
	return cap(tr.entries)*int(unsafe.Sizeof(memoEntry{})) + cap(tr.ram) + 8*len(tr.table) +
		cap(tr.ends)*int(unsafe.Sizeof(memoEnd{})) + cap(tr.serial)
}

// TestMemoReuseAllocFree: a released store's slabs and table serve the
// stores made after it, whatever their RAM size and across garbage
// collections. A store at 624 B of RAM is filled to its entry bound,
// with a halted end and output per entry, and released; stores at 2 B,
// 624 B and 64 KiB, made in turn with a collection before each, are then
// filled back to its high-water mark — as many entries, or as much RAM —
// without allocating, and hold at most memoBudget bytes.
func TestMemoReuseAllocFree(t *testing.T) {
	memoFree.Lock()
	memoFree.stores = nil
	memoFree.Unlock()
	halt := []isa.Instruction{{Op: isa.OpHalt}}
	out := []byte("out\n")
	fill := func(tr *TrajectoryMemo, m *Machine, n int) {
		for i := 0; i < n; i++ {
			m.cycles = uint64(i)
			tr.insert(m, memoHash(m.keyHash(), 0, m.cycles, 0))
			tr.Close(m, Remainder{Status: StatusHalted, Serial: out})
		}
	}
	first := NewTrajectoryMemo(624, ^uint64(0))
	mark := first.maxEntries
	fill(first, mustNew(t, Config{RAMSize: 624}, halt), mark)
	if len(first.entries) != mark {
		t.Fatalf("the first store holds %d entries, want %d", len(first.entries), mark)
	}
	first.Release()
	sizes := []int{2, 624, 1 << 16}
	machines := make([]*Machine, len(sizes))
	for i, ramSize := range sizes {
		machines[i] = mustNew(t, Config{RAMSize: ramSize}, halt)
	}
	// Each run makes the three stores in turn, so that every store is made
	// from one released at another RAM size; two collections before each,
	// since a sync.Pool keeps what it held through one.
	allocs := testing.AllocsPerRun(3, func() {
		for i, ramSize := range sizes {
			runtime.GC()
			runtime.GC()
			tr := NewTrajectoryMemo(ramSize, ^uint64(0))
			n := min(mark, mark*624/ramSize)
			fill(tr, machines[i], n)
			if len(tr.entries) != n {
				t.Fatalf("RAM %d B: %d entries after filling %d", ramSize, len(tr.entries), n)
			}
			if held := memoHeld(tr); held > memoBudget {
				t.Errorf("RAM %d B: store holds %d B, budget %d", ramSize, held, memoBudget)
			}
			tr.Release()
		}
	})
	if allocs != 0 {
		t.Errorf("filling stores back to the high-water mark allocates %.1f times a round, want 0", allocs)
	}
}

// TestMemoBoundAcrossRAMSizes: a store made from one released at another
// RAM size still holds as many entries as its own RAM size allows, and
// at most memoBudget bytes. Each store is filled to its entry bound, with
// a halted end and output per entry, then released for the next.
func TestMemoBoundAcrossRAMSizes(t *testing.T) {
	halt := []isa.Instruction{{Op: isa.OpHalt}}
	out := []byte("out\n")
	for _, ramSize := range []int{2, 624, 1 << 16, 2, 624, 2} {
		tr := NewTrajectoryMemo(ramSize, ^uint64(0))
		if want := (memoBudget - memoBudget/memoSerialShare) / (memoEntryBytes + ramSize); tr.maxEntries != want {
			t.Errorf("RAM %d B: bound of %d entries, want %d", ramSize, tr.maxEntries, want)
		}
		m := mustNew(t, Config{RAMSize: ramSize}, halt)
		for i := 0; i < tr.maxEntries; i++ {
			m.cycles = uint64(i)
			tr.insert(m, memoHash(m.keyHash(), 0, m.cycles, 0))
			tr.Close(m, Remainder{Status: StatusHalted, Serial: out})
			if held := memoHeld(tr); held > memoBudget {
				t.Fatalf("RAM %d B: store holds %d B at %d entries, budget %d", ramSize, held, i+1, memoBudget)
			}
		}
		if len(tr.entries) != tr.maxEntries {
			t.Errorf("RAM %d B: %d entries after filling to the bound of %d", ramSize, len(tr.entries), tr.maxEntries)
		}
		tr.Release()
	}
}
