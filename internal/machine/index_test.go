package machine

import (
	"bytes"
	"math/rand"
	"testing"

	"faultspace/internal/isa"
)

// buildHealingProgram generates a terminating program in the shape of a
// hardened benchmark: a few variables are kept twice (primary and
// replica, in different RAM pages when the RAM has several), every use
// compares the two and, on a mismatch, repairs the primary from the
// replica and signals PortDetect and PortCorrect — four extra cycles
// after which the machine state is a golden state again, just later.
// With a timer the program also waits for ticks in a two-cycle spin,
// which re-aligns a run delayed by an even number of cycles with the
// interrupt schedule. It returns the program and the handler's vector.
func buildHealingProgram(rng *rand.Rand, ramSize, steps int, timer bool) ([]isa.Instruction, uint32) {
	const nVars = 4
	rep := int32(ramSize / 2)
	tick := int32(ramSize - 1)
	var prog []isa.Instruction
	emit := func(ins ...isa.Instruction) { prog = append(prog, ins...) }
	for i := int32(0); i < nVars; i++ {
		v := int32(rng.Intn(200))
		emit(isa.Instruction{Op: isa.OpSbi, Rs: 0, Imm: i, Imm2: v},
			isa.Instruction{Op: isa.OpSbi, Rs: 0, Imm: rep + i, Imm2: v})
	}
	for s := 0; s < steps; s++ {
		i := int32(rng.Intn(nVars))
		// Every step starts by checking variable i into r1 (== r2).
		at := int32(len(prog))
		emit(isa.Instruction{Op: isa.OpLb, Rd: 1, Rs: 0, Imm: i},
			isa.Instruction{Op: isa.OpLb, Rd: 2, Rs: 0, Imm: rep + i},
			isa.Instruction{Op: isa.OpBeq, Rs: 1, Rt: 2, Imm: at + 7},
			isa.Instruction{Op: isa.OpSbi, Rs: 0, Imm: int32(PortDetect), Imm2: 1},
			isa.Instruction{Op: isa.OpMov, Rd: 1, Rs: 2},
			isa.Instruction{Op: isa.OpSb, Rt: 1, Rs: 0, Imm: i},
			isa.Instruction{Op: isa.OpSbi, Rs: 0, Imm: int32(PortCorrect), Imm2: 1})
		switch k := rng.Intn(4); {
		case k == 0:
			emit(isa.Instruction{Op: isa.OpAddi, Rd: 1, Rs: 1, Imm: int32(1 + rng.Intn(7))},
				isa.Instruction{Op: isa.OpSb, Rt: 1, Rs: 0, Imm: i},
				isa.Instruction{Op: isa.OpSb, Rt: 1, Rs: 0, Imm: rep + i})
		case k == 1:
			emit(isa.Instruction{Op: isa.OpSb, Rt: 1, Rs: 0, Imm: int32(PortSerial)})
		case k == 2 && timer:
			at := int32(len(prog))
			emit(isa.Instruction{Op: isa.OpLb, Rd: 7, Rs: 0, Imm: tick},
				isa.Instruction{Op: isa.OpBeq, Rs: 7, Rt: 0, Imm: at},
				isa.Instruction{Op: isa.OpSbi, Rs: 0, Imm: tick, Imm2: 0},
				isa.Instruction{Op: isa.OpLi, Rd: 7, Imm: 0})
		default:
			emit(isa.Instruction{Op: isa.OpXor, Rd: uint8(3 + rng.Intn(3)), Rs: 1, Rt: uint8(3 + rng.Intn(3))},
				isa.Instruction{Op: isa.OpSb, Rt: 3, Rs: 0, Imm: int32(nVars + rng.Intn(8))})
		}
	}
	emit(isa.Instruction{Op: isa.OpHalt})
	// The handler checks variable 0 the same way (in registers of its
	// own, cleared again) before it posts the tick: a repair in here
	// delays the sret, which re-arms the timer relative to itself, so the
	// rest of the run is late by four cycles with every deadline intact.
	vector := uint32(len(prog))
	emit(isa.Instruction{Op: isa.OpLb, Rd: 8, Rs: 0, Imm: 0},
		isa.Instruction{Op: isa.OpLb, Rd: 9, Rs: 0, Imm: rep},
		isa.Instruction{Op: isa.OpBeq, Rs: 8, Rt: 9, Imm: int32(vector) + 7},
		isa.Instruction{Op: isa.OpSbi, Rs: 0, Imm: int32(PortDetect), Imm2: 1},
		isa.Instruction{Op: isa.OpMov, Rd: 8, Rs: 9},
		isa.Instruction{Op: isa.OpSb, Rt: 8, Rs: 0, Imm: 0},
		isa.Instruction{Op: isa.OpSbi, Rs: 0, Imm: int32(PortCorrect), Imm2: 1},
		isa.Instruction{Op: isa.OpLi, Rd: 8, Imm: 0},
		isa.Instruction{Op: isa.OpLi, Rd: 9, Imm: 0},
		isa.Instruction{Op: isa.OpSbi, Rs: 0, Imm: tick, Imm2: 1},
		isa.Instruction{Op: isa.OpSret})
	return prog, vector
}

// matchRig is one golden run, indexed, with a worker's parent/child pair
// on it — what the campaign's fork provider holds.
type matchRig struct {
	cfg           Config
	prog          []isa.Instruction
	golden        *Machine // run to its halt
	x             *GoldenIndex
	parent, child *Machine
	forker        *Forker
	matcher       *Matcher
}

func newMatchRig(t testing.TB, cfg Config, prog []isa.Instruction, budget, hashMask uint64) *matchRig {
	t.Helper()
	fresh := func() *Machine { return mustNew(t, cfg, prog) }
	r := &matchRig{cfg: cfg, prog: prog, golden: fresh(), parent: fresh(), child: fresh()}
	if r.golden.Run(1<<16) != StatusHalted {
		t.Skip("golden run does not halt")
	}
	var err error
	_, r.x, err = captureGolden(fresh(), r.golden.cycles, max(r.golden.cycles/4, 16), budget, hashMask)
	if err != nil {
		t.Fatal(err)
	}
	r.forker = NewForker(r.parent, r.child)
	r.matcher = r.x.NewMatcher(r.forker)
	return r
}

// fork positions the child at golden cycle f, fault-free.
func (r *matchRig) fork(t testing.TB, f uint64) {
	t.Helper()
	if r.parent.cycles > f {
		r.parent.Restore(mustNew(t, r.cfg, r.prog).Snapshot())
		r.forker.Invalidate()
	}
	if f > 0 && r.parent.Run(f) != StatusRunning {
		t.Fatalf("golden run ended before cycle %d", f)
	}
	r.forker.Fork()
}

func mustNew(t testing.TB, cfg Config, prog []isa.Instruction) *Machine {
	t.Helper()
	m, err := New(cfg, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// verify runs a copy of the matched child out and demands exactly the
// run the match promises: a halt Δt − at.Cycle cycles on, with the
// child's output so far plus the golden remainder.
func (r *matchRig) verify(t testing.TB, at GoldenPoint) {
	t.Helper()
	c, g := r.child, r.golden
	out := mustNew(t, r.cfg, r.prog)
	out.Restore(c.Snapshot())
	out.Run(c.cycles + g.cycles + 16)
	wantSerial := append(append([]byte(nil), c.serial...), g.serial[at.SerialLen:]...)
	switch {
	case out.status != StatusHalted:
		t.Fatalf("child at cycle %d matched golden cycle %d but ended %v (%v) at cycle %d",
			c.cycles, at.Cycle, out.status, out.exc, out.cycles)
	case out.cycles != c.cycles+(g.cycles-at.Cycle):
		t.Fatalf("matched run halted at cycle %d, want %d + (%d - %d)", out.cycles, c.cycles, g.cycles, at.Cycle)
	case !bytes.Equal(out.serial, wantSerial):
		t.Fatalf("matched run's serial %q, composed %q", out.serial, wantSerial)
	case out.detects != c.detects+(g.detects-at.Detects), out.corrects != c.corrects+(g.corrects-at.Corrects):
		t.Fatalf("matched run's counters %d/%d, composed %d/%d", out.detects, out.corrects,
			c.detects+(g.detects-at.Detects), c.corrects+(g.corrects-at.Corrects))
	}
}

// probe drives the child like runConverge does until the matcher reports
// a golden cycle, the loop detector a loop, or the run ends.
func (r *matchRig) probe(det *LoopDetector) (GoldenPoint, bool) {
	det.Reset()
	for runToProbe(det, r.child, 4*r.golden.cycles+256) {
		if at, ok := r.matcher.Match(); ok {
			return at, true
		}
		if det.Probe(r.child) {
			break
		}
	}
	return GoldenPoint{}, false
}

// TestShiftedMatchHealing: on a self-repairing program, flips into the
// protected variables are matched to a golden cycle EARLIER than the
// child's own — the repair cost cycles — every match is exactly the run
// it promises, and a faultless child matches its own cycle.
func TestShiftedMatchHealing(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, ramSize := range []int{64, 600} {
		for _, period := range []uint64{0, 37} {
			prog, vector := buildHealingProgram(rng, ramSize, 60, period > 0)
			cfg := Config{RAMSize: ramSize, TimerPeriod: period, TimerVector: vector}
			r := newMatchRig(t, cfg, prog, goldenIndexBudget, ^uint64(0))
			det := NewLoopDetector(8)

			r.fork(t, r.golden.cycles/3)
			r.child.Run(r.child.cycles + 5)
			if at, ok := r.matcher.Match(); !ok || at.Cycle != r.child.cycles {
				t.Fatalf("faultless child at cycle %d matched %+v (ok=%v)", r.child.cycles, at, ok)
			}

			shifted, same := 0, 0
			for trial := 0; trial < 200; trial++ {
				r.fork(t, uint64(rng.Intn(int(r.golden.cycles))))
				// Variables heal late; the scratch bytes behind them are
				// only ever overwritten, which heals on time.
				if err := r.child.FlipBit(uint64(rng.Intn(12 * 8))); err != nil {
					t.Fatal(err)
				}
				if at, ok := r.probe(det); ok {
					r.verify(t, at)
					if at.Cycle == r.child.cycles {
						same++
					} else {
						shifted++
					}
				}
			}
			if shifted == 0 || same == 0 {
				t.Errorf("ram %d period %d: %d shifted and %d same-cycle matches, want both", ramSize, period, shifted, same)
			}
		}
	}
}

// TestMatchTimerDeadline: with a timer the match is on the RELATIVE
// deadline. A child moved in time together with its deadline matches; one
// whose deadline alone moved does not; and an overdue deadline (inside
// the handler, before sret re-arms it) clamps to zero however overdue.
func TestMatchTimerDeadline(t *testing.T) {
	prog, vector := buildHealingProgram(rand.New(rand.NewSource(32)), 64, 40, true)
	cfg := Config{RAMSize: 64, TimerPeriod: 29, TimerVector: vector}
	r := newMatchRig(t, cfg, prog, goldenIndexBudget, ^uint64(0))

	var armed, inHandler uint64
	for m := mustNew(t, cfg, prog); m.Run(m.cycles+1) == StatusRunning; {
		if m.inIRQ && inHandler == 0 {
			inHandler = m.cycles
		}
		if !m.inIRQ && m.fireAt > m.cycles+2 && armed == 0 && m.cycles > 10 {
			armed = m.cycles
		}
	}
	if armed == 0 || inHandler == 0 {
		t.Fatalf("golden run lacks an armed cycle (%d) or a handler cycle (%d)", armed, inHandler)
	}

	r.fork(t, armed)
	c := r.child
	c.cycles += 5
	c.fireAt += 5
	if at, ok := r.matcher.Match(); !ok || at.Cycle != armed {
		t.Errorf("child shifted with its deadline matched %+v (ok=%v), want golden cycle %d", at, ok, armed)
	} else {
		r.verify(t, at)
	}
	c.fireAt++
	if at, ok := r.matcher.Match(); ok {
		t.Errorf("child with a later deadline matched golden cycle %d", at.Cycle)
	}
	c.fireAt = c.cycles // due now: fires before the next instruction, unlike golden
	if at, ok := r.matcher.Match(); ok {
		t.Errorf("child with a due deadline matched golden cycle %d", at.Cycle)
	}

	r.fork(t, inHandler)
	if c.fireAt > c.cycles {
		t.Fatalf("deadline %d not overdue inside the handler at cycle %d", c.fireAt, c.cycles)
	}
	c.cycles += 9 // nine cycles later and nine cycles more overdue
	if at, ok := r.matcher.Match(); !ok || at.Cycle != inHandler {
		t.Errorf("more overdue child matched %+v (ok=%v), want golden cycle %d", at, ok, inHandler)
	} else {
		r.verify(t, at)
	}
}

// TestMatchAfterSkipConsumed: an instruction-skip fault is pending state
// the index does not hold. The probe loop consumes it before its first
// probe, and a machine probed with it still pending is refused.
func TestMatchAfterSkipConsumed(t *testing.T) {
	prog, vector := buildHealingProgram(rand.New(rand.NewSource(33)), 64, 30, false)
	r := newMatchRig(t, Config{RAMSize: 64, TimerVector: vector}, prog, goldenIndexBudget, ^uint64(0))
	r.fork(t, 20)
	r.child.FlipSkip()
	if at, ok := r.matcher.Match(); ok {
		t.Fatalf("child with a pending skip matched golden cycle %d", at.Cycle)
	}
	det := NewLoopDetector(1)
	if !runToProbe(det, r.child, 1<<20) {
		t.Fatal("no probe point reached")
	}
	if r.child.skipNext {
		t.Fatal("skip still pending at the first probe")
	}
}

// TestMatchHashCollisions is the soundness seam: with every hash forced
// to zero each probe walks the whole table, and the full compare must
// still report exactly the matches the real hash finds — only FalseHits
// may differ.
func TestMatchHashCollisions(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	prog, vector := buildHealingProgram(rng, 600, 40, true)
	cfg := Config{RAMSize: 600, TimerPeriod: 41, TimerVector: vector}
	real := newMatchRig(t, cfg, prog, goldenIndexBudget, ^uint64(0))
	degraded := newMatchRig(t, cfg, prog, goldenIndexBudget, 0)
	detA, detB := NewLoopDetector(8), NewLoopDetector(8)
	matches := 0
	for trial := 0; trial < 150; trial++ {
		f, bit := uint64(rng.Intn(int(real.golden.cycles))), uint64(rng.Intn(600*8))
		if trial%2 == 0 {
			bit = uint64(rng.Intn(4 * 8)) // a protected variable: heals
		}
		var got [2]GoldenPoint
		var ok [2]bool
		for i, r := range []*matchRig{real, degraded} {
			r.fork(t, f)
			if err := r.child.FlipBit(bit); err != nil {
				t.Fatal(err)
			}
			got[i], ok[i] = r.probe([]*LoopDetector{detA, detB}[i])
		}
		if got[0] != got[1] || ok[0] != ok[1] || real.child.cycles != degraded.child.cycles {
			t.Fatalf("trial %d: real hash matched %+v (%v) at cycle %d, constant hash %+v (%v) at cycle %d",
				trial, got[0], ok[0], real.child.cycles, got[1], ok[1], degraded.child.cycles)
		}
		if ok[0] {
			matches++
		}
	}
	if matches == 0 {
		t.Fatal("no trial matched; the comparison is vacuous")
	}
	if real.matcher.FalseHits != 0 {
		t.Errorf("real hash: %d false hits on a %d-state index", real.matcher.FalseHits, len(real.x.states))
	}
	if degraded.matcher.FalseHits == 0 {
		t.Error("constant hash produced no false hit: the seam does not degrade the hash")
	}
}

// TestIndexBudgetStride: under a forced tiny budget the index keeps only
// every stride-th golden cycle, stride odd, within the budget — and the
// probe loop still finds shifted matches, each exactly the run promised.
func TestIndexBudgetStride(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	prog, vector := buildHealingProgram(rng, 600, 120, false)
	cfg := Config{RAMSize: 600, TimerVector: vector}
	const budget = 16 << 10
	r := newMatchRig(t, cfg, prog, budget, ^uint64(0))
	if s := r.x.stride; s < 3 || s%2 == 0 {
		t.Fatalf("stride %d under a %d-byte budget for %d cycles, want odd and above 1", s, budget, r.golden.cycles)
	}
	if r.x.Bytes() > budget {
		t.Errorf("index holds %d bytes, budget %d", r.x.Bytes(), budget)
	}
	if full := newMatchRig(t, cfg, prog, goldenIndexBudget, ^uint64(0)); full.x.stride != 1 {
		t.Errorf("stride %d under the default budget, want 1", full.x.stride)
	}
	det := NewLoopDetector(8)
	shifted := 0
	for trial := 0; trial < 200; trial++ {
		r.fork(t, uint64(rng.Intn(int(r.golden.cycles)/2)))
		if err := r.child.FlipBit(uint64(rng.Intn(4 * 8))); err != nil {
			t.Fatal(err)
		}
		if at, ok := r.probe(det); ok {
			if at.Cycle%r.x.stride != 0 {
				t.Fatalf("matched unindexed cycle %d (stride %d)", at.Cycle, r.x.stride)
			}
			r.verify(t, at)
			if at.Cycle != r.child.cycles {
				shifted++
			}
		}
	}
	if shifted == 0 {
		t.Error("no shifted match under the tiny budget")
	}
}

func TestIndexStrideBound(t *testing.T) {
	for _, c := range []struct {
		cycles uint64
		ram    int
	}{{100, 2}, {6336, 624}, {1 << 22, 624}, {1 << 22, 1 << 16}, {1 << 30, 1 << 16}} {
		s := indexStride(c.cycles, c.ram, goldenIndexBudget)
		states := (c.cycles + s - 1) / s
		worst := states * (indexStateBytes + min(s, uint64(numPages(c.ram)))*uint64(min(c.ram, PageSize)+indexPageHeader))
		if s%2 == 0 || worst > goldenIndexBudget {
			t.Errorf("%d cycles, %d B RAM: stride %d, worst case %d B over the %d budget", c.cycles, c.ram, s, worst, goldenIndexBudget)
		}
		if c.cycles <= 1<<16 && s != 1 {
			t.Errorf("%d cycles, %d B RAM: stride %d, want every cycle indexed", c.cycles, c.ram, s)
		}
	}
}

// FuzzShiftedReconverge: random self-repairing program, random timer,
// random fault of any kind at a random cycle, full or undersized index.
// Whenever the matcher reports a golden cycle t′ for the child at cycle
// c, running the child out must reproduce the composed run: a halt at
// cycle c + Δt − t′ with the composed serial output and counters.
func FuzzShiftedReconverge(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(40), uint16(3), uint8(0))
	f.Add(int64(2), uint8(23), uint16(100), uint16(9), uint8(0))
	f.Add(int64(3), uint8(50), uint16(7), uint16(70), uint8(1))
	f.Add(int64(4), uint8(0), uint16(300), uint16(2), uint8(2))
	f.Add(int64(5), uint8(31), uint16(55), uint16(0), uint8(3))
	f.Add(int64(6), uint8(17), uint16(200), uint16(12), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, period uint8, cycle, bit uint16, kind uint8) {
		rng := rand.New(rand.NewSource(seed))
		ramSize := []int{64, 300, 600}[rng.Intn(3)]
		prog, vector := buildHealingProgram(rng, ramSize, 20+rng.Intn(60), period > 0)
		cfg := Config{RAMSize: ramSize, TimerVector: vector}
		if period > 0 {
			cfg.TimerPeriod = uint64(period) + 8 // the handler must not lock out the program
		}
		budget := uint64(goldenIndexBudget)
		if kind&4 != 0 {
			budget = 8 << 10
		}
		r := newMatchRig(t, cfg, prog, budget, ^uint64(0))
		r.fork(t, uint64(cycle)%r.golden.cycles)
		c := r.child
		var err error
		switch kind & 3 {
		case 0:
			// Half the flips into the protected variables, which heal.
			b := uint64(bit) % c.RAMBits()
			if bit&1 == 0 {
				b = uint64(bit) % (4 * 8)
			}
			err = c.FlipBit(b)
		case 1:
			err = c.FlipRegBit(uint64(bit) % RegSpaceBits)
		case 2:
			err = c.FlipPCBit(uint64(bit) % 8)
		case 3:
			c.FlipSkip()
		}
		if err != nil {
			t.Fatal(err)
		}
		if at, ok := r.probe(NewLoopDetector(uint64(1 + rng.Intn(40)))); ok {
			r.verify(t, at)
		}
	})
}
