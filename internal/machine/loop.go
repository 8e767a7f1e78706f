package machine

import (
	"bytes"
	"math/bits"

	"faultspace/internal/isa"
)

// LoopProbeInterval is the default initial cycle spacing between
// loop-detector probes. Each probe costs one ring insertion (O(RAM) bytes
// copied) plus a hash-chain scan, so the spacing trades detection latency
// against probe overhead; any finite loop is still detected regardless of
// how its period relates to the spacing (see Probe). The campaign passes
// its own, wider interval (campaign.probeInterval): its probes also ask
// the golden-state index, and most of its runs end at the first one.
const LoopProbeInterval = 16

// Probe back-off. Due doubles the probe spacing after every
// loopBackoffProbes probes, up to loopBackoffDoublings times (×64). Runs
// that rejoin the golden run or spin forever mostly do so within a few
// hundred cycles of the fault, where the dense early probes settle them
// as fast as a fixed spacing would; a run still unsettled after that is
// usually a silent corruption on its way to the halt, and every probe
// on it is wasted. The spacing is a policy constant, not an outcome
// input: a match is confirmed and an exact-state recurrence proves an
// infinite loop at whatever cycle it is observed, and a shortcut that
// comes later or not at all still ends in the same outcome at the halt
// or the cycle budget. The cap keeps the spacing constant in the long
// run, so the ring and the Brent anchor still close on any loop entered
// late.
const (
	loopBackoffProbes    = 8
	loopBackoffDoublings = 6
)

// Probe dither. Due scales the n-th spacing by (48 + d(n))/64,
// d(n) the bit-reversed low five bits of the probe count — 0, 16, 8, 24,
// 4, 20, … — so successive spacings hop around between three and five
// quarters of the nominal spacing s instead of repeating it. At a
// constant spacing the distance between any two probes is a multiple of
// s, and a loop of period L recurs at a probe only every L/gcd(s, L)
// probes: 33 of them for s = 64 against the bundled kernels' 66-cycle
// scheduler spin, at four times the cycles the same 33 probes cost at
// s = 16. Under the dither the distances between nearby probes take as
// many values as there are probe pairs, spread evenly by the bit
// reversal, and a multiple of L turns up after a handful of probes (the
// 66–72-cycle spins of bin_sem2 are proven at the sixth probe in the
// median, a period after the spacing-16 schedule proved them with
// seventeen). The offsets repeat every 32 probes, so probes 32 apart are
// still a fixed distance apart and any loop is closed eventually, as
// with a constant spacing.
func (d *LoopDetector) dither() uint64 { return uint64(bits.Reverse8(uint8(d.ringN)) >> 3) }

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

// probeKey is the execution-relevant machine state apart from RAM and
// serial output: pc, registers, IRQ state and the clamped distance to the
// next timer fire (timerRel). Both probes of a faulty run compare it with
// RAM beside it. The golden index's match is serial-blind (goldenState
// keeps the serial length only to compose output from), the loop
// detector's recurrence is serial-aware (ringEntry compares it too).
// skipNext is not part of it: no probe ever sees it set (see core).
type probeKey struct {
	regs        [isa.NumRegs]uint32
	pc, savedPC uint32
	rel         uint64
	inIRQ       bool
}

// load sets k to the machine's current probe key.
func (k *probeKey) load(m *Machine) {
	k.regs, k.pc, k.savedPC, k.rel, k.inIRQ = m.regs, m.pc, m.savedPC, m.timerRel(), m.inIRQ
}

// ringEntry is one probe state of the loop detector. The RAM buffer is
// reused across probes and experiments; prev chains to the previous
// probe whose pc hashed to the same slot (-1 ends the chain).
type ringEntry struct {
	probeKey
	serialLen int
	ram       []byte
	prev      int
}

// holds reports whether e recorded the machine's state, k its probe key.
func (e *ringEntry) holds(k *probeKey, m *Machine) bool {
	return e.serialLen == len(m.serial) && e.probeKey == *k && bytes.Equal(e.ram, m.ram)
}

// record stores the machine's state, k its probe key, in e.
func (e *ringEntry) record(k *probeKey, m *Machine) {
	e.probeKey, e.serialLen = *k, len(m.serial)
	e.ram = append(e.ram[:0], m.ram...)
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
// after at most s·L/gcd(s, L) cycles — sooner under Due's dither,
// which breaks the gcd — several times earlier than an anchor-doubling
// scheme settles. The fallback tier is Brent's algorithm (one anchored
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

	// due is the absolute cycle of the next probe; 0 until Due computes
	// it after a Reset or a Probe.
	due uint64

	// Brent fallback state.
	probes   uint64 // probes since the last anchor
	window   uint64 // probes until the next re-anchor (doubles)
	anchored bool
	anchor   ringEntry
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
	if d.ringN > 0 {
		// Most campaign runs end before their first Probe.
		clear(d.slots[:])
	}
	d.ringN = 0
	d.due = 0
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
	d.due = 0
	var k probeKey
	k.load(m)

	// Ring tier: walk the hash chain of probes sharing this pc, newest
	// first. A chain entry older than the ring window has been
	// overwritten; prev links only ever point further back, so the walk
	// stops there.
	h := pcSlot(k.pc)
	for seq := int(d.slots[h]) - 1; seq >= 0 && d.ringN-seq <= loopRingSize; {
		e := &d.ring[seq&(loopRingSize-1)]
		if e.holds(&k, m) {
			return true
		}
		seq = e.prev
	}

	// Brent tier: exactly the classic anchor check, for loops whose
	// probe-level period exceeds the ring window.
	if d.anchored && d.anchor.holds(&k, m) {
		return true
	}

	// No recurrence: retain the current state in the ring...
	e := &d.ring[d.ringN&(loopRingSize-1)]
	e.record(&k, m)
	e.prev = int(d.slots[h]) - 1
	d.slots[h] = int32(d.ringN) + 1
	d.ringN++

	// ...and advance the Brent window.
	d.probes++
	if d.probes >= d.window {
		d.probes = 0
		d.window *= 2
		d.anchored = true
		d.anchor.record(&k, m)
	}
	return false
}

// Due returns the absolute cycle of the next probe: the current spacing
// on from the cycle of the last Probe, or of the first Due call after a
// Reset. It stays put until the next Probe, so a caller may stop the
// machine at other cycles in between without moving the schedule.
func (d *LoopDetector) Due(m *Machine) uint64 {
	if d.due == 0 {
		s := d.spacing()
		d.due = m.cycles + max(s*(48+d.dither())/64, 1)
	}
	return d.due
}
