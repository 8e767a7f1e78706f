package machine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
	"unsafe"
)

// goldenIndexBudget bounds the memory one GoldenIndex may take, whatever
// the golden run's length: newGoldenIndex picks the cycle stride from it.
// A policy constant, not an outcome input — a sparser index only finds
// fewer or later matches, and a run that is never matched simply runs out.
const goldenIndexBudget = 32 << 20

// goldenState is the probe key of one indexed golden cycle — what a match
// is confirmed against, with the cycle's RAM — plus the observable
// accumulators a confirmed match is composed from.
type goldenState struct {
	probeKey
	serialLen int
	detects   uint64
	corrects  uint64
}

// pageVersion is the content of one RAM page from indexed state `from`
// until the page's next version.
type pageVersion struct {
	from int
	data []byte
}

// Upper bounds on the bytes one stored item takes, which indexStride
// sizes the index by: a goldenState with its share of the table (under
// four slots) and the filter (eight bits a slot); a pageVersion's header
// on top of its data.
const (
	indexStateBytes = uint64(unsafe.Sizeof(goldenState{})) + 4*8 + 4
	indexPageHeader = int(unsafe.Sizeof(pageVersion{}))
)

// GoldenIndex maps the execution-relevant state of the golden run's
// cycles — the probe key (pc, registers, IRQ state, the clamped relative
// timer deadline), exactly the loop detector's definition, and RAM — to
// the cycle it occurred at, so a faulty run can be matched against the
// golden run at ANY cycle, not only the one it is at. A machine whose
// state equals the golden state of cycle t continues exactly as the
// golden run does from t: the machine is deterministic, MMIO ports are
// write-only (past output cannot feed back), and the timer only ever
// acts through the relative deadline. Serial output and the
// detect/correct counters are therefore excluded from the match and
// reported per cycle instead (GoldenPoint), for the caller to compose
// the run's remainder from.
//
// The golden run halts, so no two of its cycles share a state (a
// recurrence would loop forever); a machine matches at most one cycle.
//
// The hash only finds candidates. Every candidate is confirmed by a
// full compare of registers and all of RAM before it is reported, so
// soundness never rests on the hash (TestMatchHashCollisions degrades it
// to a constant and observes identical matches).
//
// RAM is stored as per-page versions: a page is copied only at an
// indexed cycle since whose predecessor it was written. Memory is bounded
// by goldenIndexBudget: golden runs too long to index every cycle within
// it are indexed every stride-th cycle, with stride odd so that probes
// spaced a power of two apart still visit every residue.
//
// A GoldenIndex is immutable once captureGolden returns and safe for
// concurrent use by any number of Matchers.
type GoldenIndex struct {
	ramSize int
	stride  uint64
	// states[i] is the golden state at cycle i*stride.
	states []goldenState
	// table is open-addressed with linear probing: the high half of a
	// slot is a tag from the state hash, the low half 1 + the state
	// ordinal; 0 is empty. At most half full.
	table []uint64
	// filter has a bit set for the probe-key pre-hash of every indexed
	// state: a probe whose probe key no golden cycle shares is
	// rejected before any RAM is touched.
	filter []uint64
	// pages[p] lists page p's versions by ascending `from`.
	pages [][]pageVersion
	bytes int
	// hashMask is ANDed onto every hash: all ones, except in tests that
	// force collisions.
	hashMask uint64
}

// indexStride returns the smallest odd cycle stride at which indexing a
// golden run of the given length stays within budget bytes even if every
// cycle stores to a different page: an indexed state then carries up to
// min(stride, pages) fresh page versions.
func indexStride(cycles uint64, ramSize int, budget uint64) uint64 {
	pageBytes := uint64(min(ramSize, PageSize) + indexPageHeader)
	for stride := uint64(1); ; stride += 2 {
		states := (cycles + stride - 1) / stride
		perState := indexStateBytes + min(stride, uint64(numPages(ramSize)))*pageBytes
		if states <= 1 || states*perState <= budget {
			return stride
		}
	}
}

func newGoldenIndex(ramSize int, cycles, budget, hashMask uint64) *GoldenIndex {
	stride := indexStride(cycles, ramSize, budget)
	states := max(int((cycles+stride-1)/stride), 1)
	slots := 1 << bits.Len(uint(2*states)) // a power of two above 2*states
	x := &GoldenIndex{
		ramSize:  ramSize,
		stride:   stride,
		states:   make([]goldenState, 0, states),
		table:    make([]uint64, slots),
		filter:   make([]uint64, max(slots*8/64, 1)),
		pages:    make([][]pageVersion, numPages(ramSize)),
		hashMask: hashMask,
	}
	x.bytes = cap(x.states)*int(unsafe.Sizeof(goldenState{})) + 8*len(x.table) + 8*len(x.filter)
	return x
}

// Bytes returns the memory the index holds: states, table, filter and
// page versions.
func (x *GoldenIndex) Bytes() int { return x.bytes }

const (
	hashK1 = 0x9e3779b97f4a7c15
	hashK2 = 0xff51afd7ed558ccd
)

// mix is one step of the digests below: fold a word into a lane.
func mix(h, w uint64) uint64 { return (bits.RotateLeft64(h, 29) ^ w) * hashK2 }

// keyHash digests the machine's probe key, the non-RAM part of the
// matched state, straight from the machine: the hash sits on every probe
// of every experiment, and only a candidate it finds is worth loading the
// key for. The words go through four independent lanes so the multiplies
// overlap.
func (m *Machine) keyHash() uint64 {
	pair := func(i int) uint64 { return uint64(m.regs[i]) | uint64(m.regs[i+1])<<32 }
	h0 := (uint64(m.pc) | uint64(m.savedPC)<<32) * hashK1
	h1 := m.timerRel() * hashK1
	if m.inIRQ {
		h1 = ^h1
	}
	h2, h3 := pair(0)*hashK1, pair(2)*hashK1
	h0, h1, h2, h3 = mix(h0, pair(4)), mix(h1, pair(6)), mix(h2, pair(8)), mix(h3, pair(10))
	h0, h1 = mix(h0, pair(12)), mix(h1, pair(14))
	h := mix(mix(mix(h0, h1), h2), h3)
	return h ^ h>>32
}

// hashPage digests the content of RAM page p, four lanes wide like
// keyHash. Page hashes combine by XOR into the RAM hash, so the page
// number is part of the digest.
func hashPage(p int, b []byte) uint64 {
	h0 := uint64(p+1) * hashK1
	h1, h2, h3 := h0^hashK2, ^h0, h0+hashK2
	for ; len(b) >= 32; b = b[32:] {
		h0 = mix(h0, binary.LittleEndian.Uint64(b))
		h1 = mix(h1, binary.LittleEndian.Uint64(b[8:]))
		h2 = mix(h2, binary.LittleEndian.Uint64(b[16:]))
		h3 = mix(h3, binary.LittleEndian.Uint64(b[24:]))
	}
	for ; len(b) >= 8; b = b[8:] {
		h0 = mix(h0, binary.LittleEndian.Uint64(b))
	}
	for _, c := range b {
		h1 = mix(h1, uint64(c))
	}
	h := mix(mix(mix(h0, h1), h2), h3)
	return h ^ h>>32
}

// combineHash joins the probe key's pre-hash and the RAM hash into the
// table key.
func combineHash(keyHash, ramHash uint64) uint64 {
	h := (keyHash ^ bits.RotateLeft64(ramHash, 32)) * hashK1
	return h ^ h>>29
}

func (x *GoldenIndex) filterBit(keyHash uint64) (word int, bit uint64) {
	i := keyHash >> 8 & uint64(len(x.filter)*64-1)
	return int(i >> 6), 1 << (i & 63)
}

// indexBuilder is the state of one indexing pass: the running page
// digests of the pioneer's RAM and the arena page versions are cut from.
type indexBuilder struct {
	x        *GoldenIndex
	pageHash []uint64
	ramHash  uint64 // XOR of pageHash
	arena    []byte
}

// add indexes the pioneer's current state as the next golden state.
// Only the pages in its dirty set — written since the previous add, every
// page on the first — are copied and rehashed; add then clears the set.
func (b *indexBuilder) add(m *Machine) {
	x := b.x
	i := len(x.states)
	for p := range x.pages {
		if !m.pageDirty(p) {
			continue
		}
		lo, hi := m.pageBounds(p)
		if len(b.arena)+hi-lo > cap(b.arena) {
			// A fresh chunk: 64 KiB, or less if the whole run cannot fill it.
			b.arena = make([]byte, 0, min(1<<16, cap(x.states)*(hi-lo)))
		}
		n := len(b.arena)
		b.arena = append(b.arena, m.ram[lo:hi]...)
		data := b.arena[n:len(b.arena):len(b.arena)]
		x.pages[p] = append(x.pages[p], pageVersion{from: i, data: data})
		x.bytes += len(data) + indexPageHeader
		h := hashPage(p, data)
		b.ramHash ^= b.pageHash[p] ^ h
		b.pageHash[p] = h
	}
	m.resetDirty()
	x.states = append(x.states, goldenState{serialLen: len(m.serial), detects: m.detects, corrects: m.corrects})
	x.states[i].load(m)
	keyHash := m.keyHash() & x.hashMask
	w, bit := x.filterBit(keyHash)
	x.filter[w] |= bit
	h := combineHash(keyHash, b.ramHash) & x.hashMask
	mask := uint64(len(x.table) - 1)
	s := h & mask
	for x.table[s] != 0 {
		s = (s + 1) & mask
	}
	x.table[s] = h>>32<<32 | uint64(i+1)
}

// pageAt returns the content of page p at indexed state i.
func (x *GoldenIndex) pageAt(p, i int) []byte {
	v := x.pages[p]
	return v[sort.Search(len(v), func(k int) bool { return v[k].from > i })-1].data
}

// equal is the full compare behind every reported match: the probe key
// first (a diverged run almost always differs there), then every byte of
// RAM.
func (x *GoldenIndex) equal(i int, m *Machine) bool {
	var k probeKey
	k.load(m)
	if x.states[i].probeKey != k {
		return false
	}
	for p := range x.pages {
		lo, hi := m.pageBounds(p)
		if !bytes.Equal(m.ram[lo:hi], x.pageAt(p, i)) {
			return false
		}
	}
	return true
}

// CaptureGolden replays the golden run on the reset-state pioneer in one
// pass, capturing a ladder rung every interval cycles and indexing the
// run's states for any-cycle matching. Both stop strictly below the
// final golden cycle: the latest state any experiment is positioned at
// or matched to is one the machine is still running in.
func CaptureGolden(pioneer *Machine, cycles, interval uint64) (*Ladder, *GoldenIndex, error) {
	return captureGolden(pioneer, cycles, interval, goldenIndexBudget, ^uint64(0))
}

// captureGolden is CaptureGolden with the index's memory budget and its
// hash mask (all ones, or fewer to make hashes collide) set by tests.
func captureGolden(pioneer *Machine, cycles, interval, budget, hashMask uint64) (*Ladder, *GoldenIndex, error) {
	if interval == 0 {
		return nil, nil, fmt.Errorf("machine: CaptureGolden with a zero rung interval")
	}
	l := NewLadder(pioneer)
	x := newGoldenIndex(len(pioneer.ram), cycles, budget, hashMask)
	b := indexBuilder{x: x, pageHash: make([]uint64, len(x.pages))}
	pioneer.markAllDirty()
	b.add(pioneer)

	nextIndex, nextRung := x.stride, interval
	for {
		next := min(nextIndex, nextRung)
		if next >= cycles {
			return l, x, nil
		}
		if status := pioneer.Run(next); status != StatusRunning {
			return nil, nil, fmt.Errorf("machine: golden replay ended early at cycle %d (status %s)",
				pioneer.cycles, status)
		}
		if next == nextIndex {
			b.add(pioneer)
			nextIndex += x.stride
		}
		if next == nextRung {
			l.Capture(pioneer)
			nextRung += interval
		}
	}
}

// GoldenPoint is a golden cycle a machine was matched to, with the
// golden run's accumulated observable output at that cycle: a caller
// composes the matched run's final output as its own so far plus the
// golden remainder from here.
type GoldenPoint struct {
	Cycle     uint64
	SerialLen int
	Detects   uint64
	Corrects  uint64
}

// Matcher matches one scan worker's child machine against a GoldenIndex.
// It keeps the RAM hash of the worker's parent machine — the golden
// state the child was forked from — current from the Forker's record of
// parent pages written, so a probe hashes only the pages the child
// itself dirtied since the fork. It consumes that record, so a Forker
// serves one Matcher. Not safe for concurrent use; create one per worker.
type Matcher struct {
	x *GoldenIndex
	f *Forker
	// pageHash[p] digests the parent's page p unless f.stale marks it;
	// ramHash is their XOR.
	pageHash []uint64
	ramHash  uint64

	// Probes counts Match calls, FalseHits candidates the full compare
	// rejected.
	Probes, FalseHits uint64
}

// NewMatcher creates a matcher for the forker's child machine.
func (x *GoldenIndex) NewMatcher(f *Forker) *Matcher {
	if len(f.child.ram) != x.ramSize {
		panic("machine: GoldenIndex.NewMatcher with mismatched RAM size")
	}
	fillPages(f.stale) // no page is hashed yet
	return &Matcher{x: x, f: f, pageHash: make([]uint64, len(x.pages))}
}

// Match reports the golden cycle whose execution-relevant state equals
// the child's current state, if that cycle is indexed. The child must be
// running, and must not have been rewritten since the forker's last Fork
// other than by its own execution and fault injection.
func (mt *Matcher) Match() (GoldenPoint, bool) {
	x, m := mt.x, mt.f.child
	mt.Probes++
	if m.skipNext {
		// A pending instruction skip is state the index does not hold.
		return GoldenPoint{}, false
	}
	keyHash := m.keyHash() & x.hashMask
	if w, b := x.filterBit(keyHash); x.filter[w]&b == 0 {
		return GoldenPoint{}, false
	}

	parent := mt.f.parent
	ramHash := mt.ramHash
	for p := range mt.pageHash {
		if pageBit(mt.f.stale, p) {
			lo, hi := parent.pageBounds(p)
			h := hashPage(p, parent.ram[lo:hi])
			ramHash ^= mt.pageHash[p] ^ h
			mt.pageHash[p] = h
		}
	}
	clear(mt.f.stale)
	mt.ramHash = ramHash
	for p := range mt.pageHash {
		if m.pageDirty(p) {
			lo, hi := m.pageBounds(p)
			ramHash ^= mt.pageHash[p] ^ hashPage(p, m.ram[lo:hi])
		}
	}

	h := combineHash(keyHash, ramHash) & x.hashMask
	mask := uint64(len(x.table) - 1)
	for s := h & mask; x.table[s] != 0; s = (s + 1) & mask {
		if x.table[s]>>32 != h>>32 {
			continue
		}
		i := int(uint32(x.table[s])) - 1
		if x.equal(i, m) {
			st := &x.states[i]
			return GoldenPoint{
				Cycle:     uint64(i) * x.stride,
				SerialLen: st.serialLen,
				Detects:   st.detects,
				Corrects:  st.corrects,
			}, true
		}
		mt.FalseHits++
	}
	return GoldenPoint{}, false
}
