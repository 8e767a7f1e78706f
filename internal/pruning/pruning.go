// Package pruning implements def/use fault-space pruning for transient
// single-bit faults in main memory (§III-C of Schirmeier et al., DSN 2015).
//
// The fault space of a benchmark run is the grid of (injection slot,
// memory bit) coordinates, with slot t ∈ [1, Δt] denoting a bit flip after
// instruction t−1 retired and before instruction t executes, and bit
// b ∈ [0, Δm). The def/use insight: all flips of a bit between one access
// and the next *read* of that bit are equivalent — the earliest point they
// can be activated is that read. Flips between an access and the next
// *write* (or after the last access) are never read and are known a priori
// to be "No Effect".
//
// Build therefore partitions the fault space into:
//
//   - equivalence classes, one per (read, bit) pair, each carrying its
//     exact Weight (the data lifetime in cycles, the correction factor
//     demanded by Pitfall 1), and
//   - a KnownNoEffect remainder whose outcome needs no experiment.
//
// The partition is exact: Σ class weights + KnownNoEffect = Δt·Δm.
package pruning

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"faultspace/internal/isa"
	"faultspace/internal/machine"
	"faultspace/internal/trace"
)

// Class is one def/use equivalence class: all injections into Bit during
// slots (DefCycle, UseCycle] behave identically, because the flipped bit is
// first consumed by the read at UseCycle.
type Class struct {
	Bit      uint64 // memory bit index (byte*8 + bit-in-byte)
	DefCycle uint64 // cycle of the preceding access (0 = start of run)
	UseCycle uint64 // cycle of the activating read; also the representative injection slot
}

// Weight is the number of fault-space coordinates the class stands for —
// the data lifetime in cycles. Results from the single representative
// experiment must be multiplied by this weight (Pitfall 1).
func (c Class) Weight() uint64 { return c.UseCycle - c.DefCycle }

// Slot is the representative injection slot: the latest possible time,
// directly before the activating read (the black dot in Fig. 1b).
func (c Class) Slot() uint64 { return c.UseCycle }

// SpaceKind identifies which machine state a fault space covers.
type SpaceKind uint8

// Fault-space kinds.
const (
	// SpaceMemory is the paper's primary fault model: single-bit flips in
	// main memory.
	SpaceMemory SpaceKind = iota + 1
	// SpaceRegisters is the §VI-B generalization: single-bit flips in the
	// CPU register file (r1..r15; r0 is hardwired zero and immune).
	SpaceRegisters
	// SpaceSkip is the instruction-skip attack model (ARMORY-style): the
	// dynamic instruction retiring at cycle t is not executed. The space
	// is one-dimensional (Bits = 1, one coordinate per slot); slots whose
	// skipped instruction provably cannot change the observable outcome
	// are known No Effect (see BuildSkip).
	SpaceSkip
	// SpacePC is single-bit PC corruption at an injection boundary: the
	// next fetch happens from the flipped address. Slots whose flip sends
	// the PC outside the program deterministically raise ExcBadPC and are
	// grouped per bit into maximal runs (see BuildPC).
	SpacePC
	// SpaceBurst2 and SpaceBurst4 are multi-bit burst faults: k adjacent
	// bits flipped in one RAM byte. A byte has 9−k burst positions; the
	// coordinate layout is byte*(9−k)+offset (see BuildBurst). Def/use
	// intervals are the memory model's, widened to whole-byte events.
	SpaceBurst2
	SpaceBurst4
)

// Builder builds a kind's pruned fault space from a golden run and the
// program it ran.
type Builder func(*trace.Golden, []isa.Instruction) (*FaultSpace, error)

// Injector injects one fault of a kind into a machine at a raw space
// coordinate (the bit/position dimension; the slot dimension is when it
// is called).
type Injector func(*machine.Machine, uint64) error

// kinds is the one table of fault-space kinds, indexed by kind−1: the
// name reports and archives spell, the alias the -space flag also takes,
// the burst width (0 for single-coordinate kinds), the builder and the
// injector.
var kinds = [...]kindRow{
	SpaceMemory - 1: {name: "memory", alias: "mem",
		build:  func(g *trace.Golden, _ []isa.Instruction) (*FaultSpace, error) { return Build(g) },
		inject: (*machine.Machine).FlipBit},
	SpaceRegisters - 1: {name: "registers", alias: "regs",
		build:  func(g *trace.Golden, _ []isa.Instruction) (*FaultSpace, error) { return BuildRegisters(g) },
		inject: (*machine.Machine).FlipRegBit},
	SpaceSkip - 1: {name: "skip",
		build:  BuildSkip,
		inject: func(m *machine.Machine, _ uint64) error { m.FlipSkip(); return nil }},
	SpacePC - 1: {name: "pc",
		build: func(g *trace.Golden, code []isa.Instruction) (*FaultSpace, error) {
			return BuildPC(g, uint32(len(code)))
		},
		inject: (*machine.Machine).FlipPCBit},
	SpaceBurst2 - 1: burstRow("burst2", SpaceBurst2, 2),
	SpaceBurst4 - 1: burstRow("burst4", SpaceBurst4, 4),
}

type kindRow struct {
	name, alias string
	burst       int
	build       Builder
	inject      Injector
}

// burstRow is the row of the k-adjacent-bit burst kind (see BuildBurst).
func burstRow(name string, kind SpaceKind, k int) kindRow {
	perByte := machine.BurstPositions(k)
	return kindRow{name: name, burst: k,
		build: func(g *trace.Golden, _ []isa.Instruction) (*FaultSpace, error) {
			return buildSpace(kind, g.Cycles, g.RAMBits/8*perByte, g.Accesses, perByte)
		},
		inject: func(m *machine.Machine, pos uint64) error { return m.FlipBurst(k, pos) },
	}
}

// Lookup returns a kind's builder and injector. An unknown kind is
// rejected instead of defaulted: a typo'd kind must never quietly scan
// the wrong space.
func Lookup(k SpaceKind) (Builder, Injector, error) {
	if !k.Valid() {
		return nil, nil, fmt.Errorf("pruning: unknown fault-space kind %d", k)
	}
	return kinds[k-1].build, kinds[k-1].inject, nil
}

// Valid reports whether k is a known fault-space kind.
func (k SpaceKind) Valid() bool { return k >= 1 && int(k) <= len(kinds) }

// String returns the kind name.
func (k SpaceKind) String() string {
	if !k.Valid() {
		return fmt.Sprintf("space(%d)", uint8(k))
	}
	return kinds[k-1].name
}

// BurstWidth returns the burst width k of a burst space kind (0 for
// non-burst kinds).
func (k SpaceKind) BurstWidth() int {
	if !k.Valid() {
		return 0
	}
	return kinds[k-1].burst
}

// ParseKind resolves a kind by its name or alias; the error of an unknown
// one lists the valid names.
func ParseKind(s string) (SpaceKind, error) {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		if s != "" && (s == k.name || s == k.alias) {
			return SpaceKind(i + 1), nil
		}
		names[i] = k.name
	}
	return 0, fmt.Errorf("unknown fault space %q (valid: %s)", s, strings.Join(names, ", "))
}

// FaultSpace is the pruned fault space of one golden run.
type FaultSpace struct {
	// Kind is the machine state this space covers.
	Kind SpaceKind
	// Cycles is Δt, the time dimension (number of injection slots).
	Cycles uint64
	// Bits is Δm, the memory dimension.
	Bits uint64
	// Classes are the equivalence classes requiring one experiment each,
	// sorted by (Slot, Bit).
	Classes []Class
	// KnownNoEffect is the total weight of coordinates known a priori to
	// be "No Effect" (faults overwritten before a read, or never read).
	KnownNoEffect uint64

	// byBit indexes Classes per bit for coordinate lookups; classes of a
	// bit are sorted by UseCycle. The first Locate builds it: only
	// sampling, the oracle and BuildSkip look coordinates up, a scan never
	// does, and eager it was a measurable part of a small campaign.
	byBit     map[uint64][]int32
	indexOnce sync.Once
}

// Size returns the raw fault-space size w = Δt·Δm.
func (fs *FaultSpace) Size() uint64 { return fs.Cycles * fs.Bits }

// ExperimentWeight returns the total weight covered by equivalence classes
// (the population w′ remaining after excluding known-No-Effect coordinates,
// §V-C Corollary 1).
func (fs *FaultSpace) ExperimentWeight() uint64 { return fs.Size() - fs.KnownNoEffect }

// ReductionFactor returns how many raw coordinates each conducted
// experiment stands for on average: w / #classes.
func (fs *FaultSpace) ReductionFactor() float64 {
	if len(fs.Classes) == 0 {
		return 0
	}
	return float64(fs.Size()) / float64(len(fs.Classes))
}

// Build partitions the main-memory fault space of the golden run.
func Build(g *trace.Golden) (*FaultSpace, error) {
	return buildSpace(SpaceMemory, g.Cycles, g.RAMBits, g.Accesses, 8)
}

// BuildRegisters partitions the register-file fault space of the golden
// run (§VI-B). Within a cycle a register may be read and then written (an
// instruction consumes sources before producing its destination); the read
// ends the previous def/use interval and the write starts the next one.
func BuildRegisters(g *trace.Golden) (*FaultSpace, error) {
	return buildSpace(SpaceRegisters, g.Cycles, g.RegBits(), g.RegAccesses, 8)
}

// BuildBurst partitions the k-adjacent-bit burst fault space (k ∈ {2, 4}).
//
// Soundness of reusing the memory def/use intervals: every fav32 RAM
// access reads or writes whole bytes, so all 9−k burst positions within a
// byte share that byte's event stream. A burst injected between an access
// and the next read of its byte is first consumed, in its entirety, by
// that read (all k flipped bits live in the one byte); a burst between an
// access and the next write is wholly overwritten. The single-bit interval
// partition therefore carries over with the per-byte coordinate count
// widened from 8 bits to 9−k positions.
func BuildBurst(g *trace.Golden, k int) (*FaultSpace, error) {
	for _, e := range kinds {
		if e.burst == k && k != 0 {
			return e.build(g, nil)
		}
	}
	return nil, fmt.Errorf("pruning: unsupported burst width %d (want 2 or 4)", k)
}

// FromClasses reconstructs a fault space from externally stored classes
// (e.g. a scan archive). Their canonical order and the exact-partition
// invariant are verified, so a tampered or inconsistent archive is
// rejected. The space takes ownership of classes: it becomes the returned
// space's Classes, not a copy, and the caller must not modify it after.
func FromClasses(kind SpaceKind, cycles, bits uint64, classes []Class, knownNoEffect uint64) (*FaultSpace, error) {
	if !kind.Valid() {
		return nil, fmt.Errorf("pruning: unknown space kind %d", kind)
	}
	fs := &FaultSpace{
		Kind:          kind,
		Cycles:        cycles,
		Bits:          bits,
		Classes:       classes,
		KnownNoEffect: knownNoEffect,
	}
	for i, c := range fs.Classes {
		if c.Bit >= bits {
			return nil, fmt.Errorf("pruning: class bit %d outside space (%d bits)", c.Bit, bits)
		}
		if c.UseCycle > cycles {
			return nil, fmt.Errorf("pruning: class use cycle %d outside run (%d cycles)", c.UseCycle, cycles)
		}
		// Classes must arrive in canonical (Slot, Bit) order: outcome
		// arrays stored alongside them are index-parallel, so re-sorting
		// here would silently repair the pairing.
		if i > 0 {
			p := fs.Classes[i-1]
			if c.UseCycle < p.UseCycle || (c.UseCycle == p.UseCycle && c.Bit <= p.Bit) {
				return nil, fmt.Errorf("pruning: classes not in canonical (slot, bit) order at index %d", i)
			}
		}
	}
	if err := fs.checkPartition(); err != nil {
		return nil, err
	}
	return fs, nil
}

// buildSpace partitions an access-interval fault space. perByte is the
// number of fault-space coordinates per accessed byte: 8 for single-bit
// spaces, 9−k for k-bit burst spaces (every access covers whole bytes, so
// all coordinates of a byte share its event stream).
//
// The construction is allocation-light on purpose: PrepareSpace runs once
// per scan (and once per benchmark iteration), and the map-of-slices +
// reflection-sort version of this function used to cost as much as a
// third of the executor's per-scan budget. Bit indices are dense — Bits
// is the RAM, register-file or burst coordinate count, bounded by the
// 64 KiB RAM ceiling — so per-bit event lists live in one flat array
// carved by prefix sums, and the final (Slot, Bit) ordering falls out of
// a counting sort over UseCycle rather than a comparison sort: the
// bit-major construction already yields ascending UseCycle per bit and
// ascending Bit per UseCycle, and counting placement is stable.
func buildSpace(kind SpaceKind, cycles, bits uint64, accesses []trace.Access, perByte uint64) (*FaultSpace, error) {
	fs := &FaultSpace{
		Kind:   kind,
		Cycles: cycles,
		Bits:   bits,
	}

	// Pass 1: count events per bit.
	counts := make([]int32, bits)
	for _, a := range accesses {
		if a.Cycle == 0 || a.Cycle > cycles {
			return nil, fmt.Errorf("pruning: access at cycle %d outside run of %d cycles", a.Cycle, cycles)
		}
		base := uint64(a.Addr) * perByte
		n := uint64(a.Size) * perByte
		if base+n > bits {
			return nil, fmt.Errorf("pruning: access to bit %d outside %s space (%d bits)", base+n-1, kind, bits)
		}
		for i := base; i < base+n; i++ {
			counts[i]++
		}
	}

	// Carve one flat event array into per-bit lists via prefix sums. An
	// event packs (cycle << 1 | isRead) into a uint64; cycle counts fit
	// 63 bits by construction.
	starts := make([]int32, bits+1)
	var total int32
	for b, c := range counts {
		starts[b] = total
		total += c
	}
	starts[bits] = total
	events := make([]uint64, total)
	fill := make([]int32, bits)
	copy(fill, starts[:bits])
	for _, a := range accesses {
		ev := a.Cycle << 1
		if a.Kind == machine.AccessRead {
			ev |= 1
		}
		base := uint64(a.Addr) * perByte
		n := uint64(a.Size) * perByte
		for i := base; i < base+n; i++ {
			events[fill[i]] = ev
			fill[i]++
		}
	}

	// Pass 2 over per-bit event lists: validate monotonicity, account
	// known-No-Effect weight, and count the classes (reads) per UseCycle
	// for the counting sort. Bits never accessed contribute Cycles
	// coordinates of known No Effect each.
	perCycle := make([]int32, cycles+2)
	var touched uint64
	var nclasses int32
	for bit := uint64(0); bit < bits; bit++ {
		evs := events[starts[bit]:starts[bit+1]]
		if len(evs) == 0 {
			continue
		}
		touched++
		// The trace is recorded in execution order. Per bit the cycles are
		// strictly increasing, except that a register read may be followed
		// by a write of the same register in the same cycle (the
		// instruction consumes before it produces); that write starts a
		// zero-length overwritten interval, which is fine.
		prev := uint64(0)
		prevRead := false
		for _, ev := range evs {
			cycle, read := ev>>1, ev&1 != 0
			if cycle < prev || (cycle == prev && !(prevRead && !read)) {
				return nil, fmt.Errorf("pruning: non-monotonic events for bit %d (cycle %d after %d)", bit, cycle, prev)
			}
			if read {
				perCycle[cycle+1]++
				nclasses++
			} else {
				// Injections in (prev, cycle] are overwritten by this write.
				fs.KnownNoEffect += cycle - prev
			}
			prev = cycle
			prevRead = read
		}
		// Tail after the last access: dormant, never read again.
		fs.KnownNoEffect += cycles - prev
	}
	fs.KnownNoEffect += (bits - touched) * cycles

	// Counting sort: place classes directly in canonical (Slot, Bit)
	// order, which the campaign engines need to advance a single pioneer
	// machine monotonically in time.
	for c := uint64(1); c < cycles+2; c++ {
		perCycle[c] += perCycle[c-1]
	}
	fs.Classes = make([]Class, nclasses)
	for bit := uint64(0); bit < bits; bit++ {
		prev := uint64(0)
		for _, ev := range events[starts[bit]:starts[bit+1]] {
			cycle, read := ev>>1, ev&1 != 0
			if read {
				fs.Classes[perCycle[cycle]] = Class{Bit: bit, DefCycle: prev, UseCycle: cycle}
				perCycle[cycle]++
			}
			prev = cycle
		}
	}
	if err := fs.checkPartition(); err != nil {
		return nil, err
	}
	return fs, nil
}

// indexByBit builds the per-bit class index. Classes are in canonical
// (Slot, Bit) order, so appending class indices bit by bit yields
// per-bit lists sorted by UseCycle, as Locate requires. The lists are
// carved from one flat backing array sized by a counting pass, so the
// index costs two slice allocations regardless of how many bits are
// touched.
func (fs *FaultSpace) indexByBit() {
	counts := make(map[uint64]int32)
	for _, c := range fs.Classes {
		counts[c.Bit]++
	}
	backing := make([]int32, 0, len(fs.Classes))
	fs.byBit = make(map[uint64][]int32, len(counts))
	for bit, n := range counts {
		lo := len(backing)
		backing = backing[:lo+int(n)]
		fs.byBit[bit] = backing[lo : lo : lo+int(n)]
	}
	for i, c := range fs.Classes {
		fs.byBit[c.Bit] = append(fs.byBit[c.Bit], int32(i))
	}
}

// checkPartition verifies the exact-partition invariant.
func (fs *FaultSpace) checkPartition() error {
	var classWeight uint64
	for _, c := range fs.Classes {
		if c.UseCycle <= c.DefCycle {
			return fmt.Errorf("pruning: class %+v has non-positive weight", c)
		}
		classWeight += c.Weight()
	}
	if classWeight+fs.KnownNoEffect != fs.Size() {
		return fmt.Errorf("pruning: partition mismatch: classes %d + known %d != w %d",
			classWeight, fs.KnownNoEffect, fs.Size())
	}
	return nil
}

// Locate maps a raw fault-space coordinate to its equivalence class.
// It returns the class index, or ok=false when the coordinate is known
// a priori to be "No Effect". Slot must be in [1, Cycles] and bit in
// [0, Bits). Safe for concurrent use.
func (fs *FaultSpace) Locate(slot, bit uint64) (int, bool, error) {
	if slot == 0 || slot > fs.Cycles {
		return 0, false, fmt.Errorf("pruning: slot %d outside [1, %d]", slot, fs.Cycles)
	}
	if bit >= fs.Bits {
		return 0, false, fmt.Errorf("pruning: bit %d outside [0, %d)", bit, fs.Bits)
	}
	fs.indexOnce.Do(fs.indexByBit)
	idxs := fs.byBit[bit]
	// Classes per bit are sorted by UseCycle; find the first class with
	// UseCycle >= slot and check whether the slot falls inside it.
	lo := sort.Search(len(idxs), func(i int) bool {
		return fs.Classes[idxs[i]].UseCycle >= slot
	})
	if lo < len(idxs) {
		c := fs.Classes[idxs[lo]]
		if slot > c.DefCycle && slot <= c.UseCycle {
			return int(idxs[lo]), true, nil
		}
	}
	return 0, false, nil
}
