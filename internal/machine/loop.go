package machine

import (
	"bytes"

	"faultspace/internal/isa"
)

// LoopProbeInterval is the default initial cycle spacing between
// loop-detector probes. Each probe costs one ring insertion (O(RAM) bytes
// copied) plus a hash-chain scan, so the spacing trades detection latency
// against probe overhead; any finite loop is still detected regardless of
// how its period relates to the spacing (see Probe). 16 is measured, not
// guessed: halving it halves ring detection latency in cycles but
// roughly doubles the probe volume, and on the bundled kernels the
// probe cost (a RAM copy per ring insert) wins.
const LoopProbeInterval = 16

// Probe back-off. RunDetectLoop doubles the probe spacing after every
// loopBackoffProbes probes, up to loopBackoffDoublings times (×64). Runs
// that spin forever mostly enter their loop within a few hundred cycles
// of the fault, where the dense early probes prove them as fast as a
// fixed spacing would; a run still unproven after that is usually not
// looping at all — on SUM+DMR-hardened programs no experiment is, and
// fixed-spacing probes (a RAM copy every 16 cycles all the way to the
// halt) were a third of scan CPU there. The spacing is a policy constant,
// not an outcome input: an exact-state recurrence proves an infinite loop
// at whatever cycle it is observed, and a proof that comes later or not
// at all still ends in the same Timeout at the cycle budget. The cap
// keeps the spacing constant in the long run, so the ring and the Brent
// anchor still close on any loop entered late.
const (
	loopBackoffProbes    = 16
	loopBackoffDoublings = 6
)

// Ring geometry. loopRingSize probes of history bound the recurrence
// window: a loop of period L is caught by the ring when its probe-level
// period L/gcd(interval, L) fits the window. 64 entries cover every
// spin-loop period the Figure-2 kernels exhibit (62–116 cycles) with
// room to spare; rarer long or interval-coprime periods fall through to
// the Brent anchor. loopSlotCount is the pc hash-chain head count.
const (
	loopRingSize  = 64 // power of two
	loopSlotCount = 128
)

// ringEntry is one probe state in the recurrence ring. The RAM buffer is
// reused across probes and experiments; prev chains to the previous
// probe whose pc hashed to the same slot (-1 ends the chain).
type ringEntry struct {
	pc        uint32
	savedPC   uint32
	rel       uint64
	serialLen int
	prev      int
	inIRQ     bool
	regs      [isa.NumRegs]uint32
	ram       []byte
}

// LoopDetector proves that a running machine can never halt, by exact
// state recurrence: the machine is deterministic, so if its complete
// behavior-relevant state — pc, registers, RAM, IRQ state, the clamped
// distance to the next timer fire, and the serial output length —
// recurs, execution from the two occurrences is identical modulo a time
// shift and the machine loops forever. The campaign uses this to
// classify Timeout experiments as soon as the loop closes instead of
// simulating them to the full cycle budget; the verdict is independent
// of the budget, so outcomes are unchanged.
//
// Detection is two-tiered. The primary tier is a recurrence ring: the
// last loopRingSize probe states are retained verbatim, indexed by a
// pc-keyed hash chain, and the current state is compared against every
// retained probe that shares its pc. At a probe spacing s, a loop of
// period L recurs at probe distance L/gcd(s, L), so the ring proves it
// after at most s·L/gcd(s, L) cycles — for the scheduler-round spin
// loops that dominate real campaigns (L under ~100 cycles) at the
// initial spacing that is a few hundred cycles, several times earlier
// than an anchor-doubling scheme settles. The fallback tier is Brent's algorithm (one anchored
// reference, re-anchored when the probe count since the last anchor
// reaches a power of two): it needs no history window, so it eventually
// proves any recurring loop the ring's bounded history misses.
//
// The detect/correct counters are deliberately excluded from the state:
// MMIO ports are write-only, so the counters never influence execution,
// and Timeout classification ignores them. The serial LENGTH is
// included: a "loop" that emits output grows the serial buffer and
// eventually terminates with ExcSerialLimit, so it must not be declared
// infinite.
type LoopDetector struct {
	interval uint64

	// Recurrence ring: ringN probes taken so far; probe i lives in
	// ring[i % loopRingSize] until overwritten by probe i+loopRingSize.
	// slots[h] holds 1 + the sequence number of the newest probe whose
	// pc hashes to h (0 = none).
	ringN int
	ring  [loopRingSize]ringEntry
	slots [loopSlotCount]int32

	// Brent fallback state.
	probes   uint64 // probes since the last anchor
	window   uint64 // probes until the next re-anchor (doubles)
	anchored bool

	refRegs   [isa.NumRegs]uint32
	refPC     uint32
	refInIRQ  bool
	refSaved  uint32
	refRel    uint64 // clamped fireAt − cycles at the anchor
	refSerial int
	refRAM    []byte
}

// NewLoopDetector creates a detector whose probes start interval cycles
// apart (LoopProbeInterval if interval is 0) and back off from there. One
// detector serves one machine at a time; call Reset between experiments.
func NewLoopDetector(interval uint64) *LoopDetector {
	if interval == 0 {
		interval = LoopProbeInterval
	}
	return &LoopDetector{interval: interval, window: 1}
}

// spacing returns the cycle distance to the next probe: the base
// interval, doubled once per loopBackoffProbes probes taken since Reset.
func (d *LoopDetector) spacing() uint64 {
	return d.interval << min(d.ringN/loopBackoffProbes, loopBackoffDoublings)
}

// Reset discards the ring history and the anchored reference — and with
// the probe count the back-off — so the detector can track a new run.
// The RAM buffers are retained to avoid per-experiment allocation.
func (d *LoopDetector) Reset() {
	d.ringN = 0
	clear(d.slots[:])
	d.probes = 0
	d.window = 1
	d.anchored = false
}

// timerRel returns the behavior-relevant distance to the next timer
// fire: an overdue timer fires at the next opportunity no matter how
// overdue it is, so all "already due" states clamp to zero. With the
// timer disabled the field is inert and reads as zero.
func (m *Machine) timerRel() uint64 {
	if m.cfg.TimerPeriod > 0 && m.fireAt > m.cycles {
		return m.fireAt - m.cycles
	}
	return 0
}

// pcSlot hashes a program counter to a chain-head slot.
func pcSlot(pc uint32) uint32 {
	return (pc * 2654435761) >> 16 & (loopSlotCount - 1)
}

// Probe compares the machine's state against the retained probe history
// and reports true if any retained state recurred — proof of an
// infinite loop. Otherwise the state is added to the ring and the Brent
// anchor advances. The machine must be running.
func (d *LoopDetector) Probe(m *Machine) bool {
	rel := m.timerRel()

	// Ring tier: walk the hash chain of probes sharing this pc, newest
	// first. A chain entry older than the ring window has been
	// overwritten; prev links only ever point further back, so the walk
	// stops there.
	h := pcSlot(m.pc)
	for seq := int(d.slots[h]) - 1; seq >= 0 && d.ringN-seq <= loopRingSize; {
		e := &d.ring[seq&(loopRingSize-1)]
		if e.pc == m.pc &&
			e.serialLen == len(m.serial) &&
			e.inIRQ == m.inIRQ &&
			e.savedPC == m.savedPC &&
			e.rel == rel &&
			e.regs == m.regs &&
			bytes.Equal(e.ram, m.ram) {
			return true
		}
		seq = e.prev
	}

	// Brent tier: exactly the classic anchor check, for loops whose
	// probe-level period exceeds the ring window.
	if d.anchored &&
		m.pc == d.refPC &&
		len(m.serial) == d.refSerial &&
		m.inIRQ == d.refInIRQ &&
		m.savedPC == d.refSaved &&
		rel == d.refRel &&
		m.regs == d.refRegs &&
		bytes.Equal(m.ram, d.refRAM) {
		return true
	}

	// No recurrence: retain the current state in the ring...
	e := &d.ring[d.ringN&(loopRingSize-1)]
	e.pc = m.pc
	e.savedPC = m.savedPC
	e.rel = rel
	e.serialLen = len(m.serial)
	e.inIRQ = m.inIRQ
	e.regs = m.regs
	e.ram = append(e.ram[:0], m.ram...)
	e.prev = int(d.slots[h]) - 1
	d.slots[h] = int32(d.ringN) + 1
	d.ringN++

	// ...and advance the Brent window.
	d.probes++
	if d.probes >= d.window {
		d.probes = 0
		d.window *= 2
		d.anchored = true
		d.refRegs = m.regs
		d.refPC = m.pc
		d.refInIRQ = m.inIRQ
		d.refSaved = m.savedPC
		d.refRel = rel
		d.refSerial = len(m.serial)
		d.refRAM = append(d.refRAM[:0], m.ram...)
	}
	return false
}

// RunDetectLoop advances m to the absolute cycle target (like Run) in
// probe-spacing chunks, returning early with true as soon as the
// detector proves the machine loops forever. It returns false when the
// machine terminated or reached the target; in either case the machine
// state is then identical to a plain Run(target). The back-off carries
// over successive calls until Reset.
func (d *LoopDetector) RunDetectLoop(m *Machine, target uint64) bool {
	for m.status == StatusRunning && m.cycles < target {
		next := m.cycles + d.spacing()
		if next > target {
			next = target
		}
		if m.Run(next) != StatusRunning {
			return false
		}
		if m.cycles == next && next < target && d.Probe(m) {
			return true
		}
	}
	return false
}
