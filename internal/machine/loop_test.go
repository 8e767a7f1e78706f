package machine

import (
	"math/rand"
	"testing"

	"faultspace/internal/isa"
)

// runToProbe advances m to the detector's next probe (Due), at most to
// the absolute cycle target, and reports whether the probe is reached:
// the machine is still running and strictly below the target. It is
// runConverge's stepping without the memo grid.
func runToProbe(d *LoopDetector, m *Machine, target uint64) bool {
	if m.status != StatusRunning || m.cycles >= target {
		return false
	}
	next := min(d.Due(m), target)
	return m.Run(next) == StatusRunning && next < target
}

// runDetectLoop is the plain probe loop over runToProbe and Probe: it
// advances m to the absolute cycle target and reports whether the
// detector proved a loop on the way.
func runDetectLoop(d *LoopDetector, m *Machine, target uint64) bool {
	for runToProbe(d, m, target) {
		if d.Probe(m) {
			return true
		}
	}
	return false
}

// TestLoopDetectorSpin: a data-free spin loop must be proven infinite
// far before the cycle target.
func TestLoopDetectorSpin(t *testing.T) {
	m, err := New(Config{RAMSize: 64}, []isa.Instruction{
		{Op: isa.OpNop},
		{Op: isa.OpJmp, Imm: 1},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	det := NewLoopDetector(0)
	if !runDetectLoop(det, m, 1<<20) {
		t.Fatal("spin loop not detected")
	}
	if m.Status() != StatusRunning {
		t.Fatalf("status %v, want still running", m.Status())
	}
	if m.Cycles() > 10*LoopProbeInterval {
		t.Errorf("detection took %d cycles; want well under the target", m.Cycles())
	}
}

// TestLoopDetectorCountingLoop: a loop whose RAM state changes each
// iteration (a counter) must NOT be declared infinite, and the chunked
// run must land in exactly the same state as a plain Run.
func TestLoopDetectorCountingLoop(t *testing.T) {
	// r1 counts up to 200 with the count mirrored into RAM, then halt.
	prog := []isa.Instruction{
		{Op: isa.OpAddi, Rd: 1, Rs: 1, Imm: 1},
		{Op: isa.OpSb, Rt: 1, Rs: 0, Imm: 0},
		{Op: isa.OpLi, Rd: 2, Imm: 200},
		{Op: isa.OpBlt, Rs: 1, Rt: 2, Imm: 0},
		{Op: isa.OpHalt},
	}
	m, err := New(Config{RAMSize: 16}, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(Config{RAMSize: 16}, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	det := NewLoopDetector(0)
	if runDetectLoop(det, m, 1<<20) {
		t.Fatal("terminating counter loop declared infinite")
	}
	ref.Run(1 << 20)
	if got, want := stateHash(m), stateHash(ref); got != want {
		t.Fatal("chunked run diverged from plain Run")
	}
	if m.Status() != StatusHalted {
		t.Fatalf("status %v, want halted", m.Status())
	}
}

// TestLoopDetectorSerialLoop: a loop that emits serial output grows
// observable state every iteration, so it must not be declared infinite
// — it really terminates, with ExcSerialLimit.
func TestLoopDetectorSerialLoop(t *testing.T) {
	m, err := New(Config{RAMSize: 16, MaxSerial: 64}, []isa.Instruction{
		{Op: isa.OpSbi, Rs: 0, Imm: int32(PortSerial), Imm2: 'x'},
		{Op: isa.OpJmp, Imm: 0},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	det := NewLoopDetector(0)
	if runDetectLoop(det, m, 1<<20) {
		t.Fatal("serial-emitting loop declared infinite")
	}
	if m.Status() != StatusExcepted || m.Exception() != ExcSerialLimit {
		t.Fatalf("got status %v exc %v, want serial-limit exception", m.Status(), m.Exception())
	}
}

// TestLoopDetectorTimerLoop: a spin loop under a periodic timer IRQ has
// a longer compound period (loop × timer), but the relative-fire-time
// state still recurs and must be detected.
func TestLoopDetectorTimerLoop(t *testing.T) {
	m, err := New(Config{RAMSize: 16, TimerPeriod: 8, TimerVector: 1}, []isa.Instruction{
		{Op: isa.OpJmp, Imm: 0}, // main: spin
		{Op: isa.OpSret},        // handler: return, re-arming the timer
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	det := NewLoopDetector(0)
	if !runDetectLoop(det, m, 1<<20) {
		t.Fatal("timer-interleaved spin loop not detected")
	}
	if m.Cycles() >= 1<<20 {
		t.Error("detection did not beat the cycle target")
	}
}

// TestLoopDetectorChunkedEqualsRun: for random halting programs the
// detector-driven chunked execution must finish in exactly the state a
// plain Run reaches, and must never claim an infinite loop.
func TestLoopDetectorChunkedEqualsRun(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		ramSize := []int{16, 64, 256}[rng.Intn(3)]
		prog := buildRandomProgram(rng, ramSize, 40)
		m, err := New(Config{RAMSize: ramSize}, prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := New(Config{RAMSize: ramSize}, prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		det := NewLoopDetector(0)
		if runDetectLoop(det, m, 500) {
			t.Fatalf("trial %d: straight-line program declared infinite", trial)
		}
		ref.Run(500)
		if stateHash(m) != stateHash(ref) {
			t.Fatalf("trial %d: chunked run diverged from plain Run", trial)
		}
		det.Reset()
	}
}

// TestLoopDetectorCoprimePeriods: loops whose period shares no factor
// with the probe spacing recur only every `period` probes at a constant
// spacing — inside the ring window for short periods, beyond it for long
// ones. Due's dither makes the distances between nearby probes vary, so
// the ring closes the long ones too: all must be proven well before the
// target.
func TestLoopDetectorCoprimePeriods(t *testing.T) {
	for _, period := range []int{3, 17, 101} {
		prog := make([]isa.Instruction, period)
		for i := range prog {
			prog[i] = isa.Instruction{Op: isa.OpNop}
		}
		prog[period-1] = isa.Instruction{Op: isa.OpJmp, Imm: 0}
		m, err := New(Config{RAMSize: 16}, prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		det := NewLoopDetector(0)
		if !runDetectLoop(det, m, 1<<20) {
			t.Fatalf("period %d: loop not detected", period)
		}
		if m.Status() != StatusRunning || m.Cycles() >= 1<<20 {
			t.Errorf("period %d: status %v at cycle %d; want a proof before the target",
				period, m.Status(), m.Cycles())
		}
	}
}

// TestLoopProbeBackoff: a long run that never recurs must not be probed
// every LoopProbeInterval cycles all the way to the target — after the
// dense opening window the spacing doubles every loopBackoffProbes
// probes up to its cap, so the probe count is the back-off ramp plus
// cycles/(cap spacing), not cycles/16. The chunked run must still land
// in exactly the state a plain Run(target) reaches, also when split
// over several targets.
func TestLoopProbeBackoff(t *testing.T) {
	// r1 counts up (far beyond the target), so no state ever recurs.
	prog := []isa.Instruction{
		{Op: isa.OpAddi, Rd: 1, Rs: 1, Imm: 1},
		{Op: isa.OpSb, Rt: 1, Rs: 0, Imm: 0},
		{Op: isa.OpLi, Rd: 2, Imm: 1 << 30},
		{Op: isa.OpBlt, Rs: 1, Rt: 2, Imm: 0},
		{Op: isa.OpHalt},
	}
	const target = 1 << 18
	m, err := New(Config{RAMSize: 16}, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(Config{RAMSize: 16}, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	det := NewLoopDetector(0)
	for _, stop := range []uint64{1000, 50_000, target} {
		if runDetectLoop(det, m, stop) {
			t.Fatal("non-recurring run declared infinite")
		}
		if m.Cycles() != stop {
			t.Fatalf("stopped at cycle %d, want %d", m.Cycles(), stop)
		}
	}
	ref.Run(target)
	if stateHash(m) != stateHash(ref) {
		t.Fatal("chunked run diverged from plain Run")
	}
	// The dither shortens a spacing by less than half.
	capSpacing := LoopProbeInterval << loopBackoffDoublings
	limit := loopBackoffProbes*loopBackoffDoublings + 2*target/capSpacing
	if det.ringN > limit {
		t.Errorf("%d probes over %d cycles; the back-off bounds it by %d (fixed spacing: %d)",
			det.ringN, target, limit, target/LoopProbeInterval)
	}
	if det.spacing() != uint64(capSpacing) {
		t.Errorf("spacing after the ramp = %d, want the cap %d", det.spacing(), capSpacing)
	}
	det.Reset()
	if det.spacing() != LoopProbeInterval {
		t.Errorf("spacing after Reset = %d, want %d", det.spacing(), LoopProbeInterval)
	}
}
