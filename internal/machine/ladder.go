package machine

import (
	"fmt"

	"faultspace/internal/isa"
)

// PageSize is the granularity of dirty-page tracking in bytes. It is a
// multiple of 4 so an aligned word store always lies within one page.
// Smaller pages mean finer deltas (less copying per rung) but more
// bookkeeping; 256 bytes keeps the whole bitset of even the largest
// permissible RAM (64 KiB = 256 pages) in four words.
const PageSize = 256

// numPages returns the number of PageSize pages covering ramSize bytes
// (the last page may be partial).
func numPages(ramSize int) int {
	return (ramSize + PageSize - 1) / PageSize
}

// newPageSet allocates an empty page bitset for a RAM of ramSize bytes.
// Scan workers write theirs on every store and every fork, each on its
// own core, and a set of one word would be packed by the allocator next
// to the other workers' (2-worker scans of mbox1 and sort1 ran 20-35 %
// slower for it), so a set is given at least a cache line to itself.
func newPageSet(ramSize int) []uint64 {
	words := (numPages(ramSize) + 63) / 64
	return make([]uint64, words, max(words, 8))
}

// markDirty records that the page containing RAM byte addr was written.
func (m *Machine) markDirty(addr uint32) {
	p := addr / PageSize
	m.dirty[p>>6] |= 1 << (p & 63)
}

// markAllDirty conservatively marks every page dirty. The full-state
// Restore uses it so delta-snapshot consumers never assume a baseline
// that was rewritten wholesale.
func (m *Machine) markAllDirty() { fillPages(m.dirty) }

// fillPages puts every page into the page bitset.
func fillPages(set []uint64) {
	for i := range set {
		set[i] = ^uint64(0)
	}
}

// resetDirty clears the dirty-page bitset.
func (m *Machine) resetDirty() {
	for i := range m.dirty {
		m.dirty[i] = 0
	}
}

// pageBit reports whether page p is in the page bitset.
func pageBit(set []uint64, p int) bool {
	return set[p>>6]&(1<<(uint(p)&63)) != 0
}

// pageDirty reports whether page p is marked dirty.
func (m *Machine) pageDirty(p int) bool { return pageBit(m.dirty, p) }

// pageBounds returns the RAM byte range [lo, hi) of page p.
func (m *Machine) pageBounds(p int) (lo, hi int) {
	lo = p * PageSize
	hi = lo + PageSize
	if hi > len(m.ram) {
		hi = len(m.ram)
	}
	return lo, hi
}

// rungMeta is the non-RAM machine state of one ladder rung.
type rungMeta struct {
	regs      [isa.NumRegs]uint32
	pc        uint32
	cycles    uint64
	status    Status
	exc       Exception
	serialLen int
	detects   uint64
	corrects  uint64
	inIRQ     bool
	savedPC   uint32
	fireAt    uint64
}

// Ladder is a sequence of delta snapshots ("rungs") of one deterministic
// run, captured at increasing cycle counts. Each rung stores full copies
// only of the RAM pages mutated since the previous rung; unchanged pages
// share their backing array with the prior rung. A Cursor restores any
// rung onto a worker machine by copying only the pages that differ from
// the machine's last-restored state.
//
// The campaign's fork provider builds one Ladder during the golden run
// (CaptureGolden); each unit of experiments restores the rung at-or-below
// its first injection cycle once. Rungs are unit anchors and restore
// sources only — reconvergence is matched against the GoldenIndex.
//
// A Ladder is immutable after construction and safe for concurrent use
// by any number of Cursors (each Cursor belongs to one worker machine).
type Ladder struct {
	ramSize int
	rungs   []rungMeta
	// views[i][p] is the PageSize-byte content of page p at rung i.
	// Slices are shared between consecutive rungs for pages that were
	// not written in between, so pointer identity of &views[i][p][0]
	// doubles as a cheap "unchanged since rung j" test.
	views [][][]byte
	// serial is the accumulated serial output up to the newest rung;
	// rung i's output is the prefix serial[:rungs[i].serialLen].
	serial []byte
}

// NewLadder creates a ladder whose first rung (rung 0) is the machine's
// current state — typically the reset state, before any instruction has
// executed. It clears the machine's dirty-page set so the next Capture
// records exactly the pages written after this point.
func NewLadder(m *Machine) *Ladder {
	np := numPages(len(m.ram))
	view := make([][]byte, np)
	for p := 0; p < np; p++ {
		lo, hi := m.pageBounds(p)
		view[p] = append([]byte(nil), m.ram[lo:hi]...)
	}
	l := &Ladder{
		ramSize: len(m.ram),
		rungs:   []rungMeta{m.rungMeta(len(m.serial))},
		views:   [][][]byte{view},
		serial:  append([]byte(nil), m.serial...),
	}
	m.resetDirty()
	return l
}

func (m *Machine) rungMeta(serialLen int) rungMeta {
	return rungMeta{
		regs:      m.regs,
		pc:        m.pc,
		cycles:    m.cycles,
		status:    m.status,
		exc:       m.exc,
		serialLen: serialLen,
		detects:   m.detects,
		corrects:  m.corrects,
		inIRQ:     m.inIRQ,
		savedPC:   m.savedPC,
		fireAt:    m.fireAt,
	}
}

// Capture appends the machine's current state as a new rung. The machine
// must be the one the ladder has tracked since NewLadder (same run, no
// intervening Restore), and its cycle count must exceed the last rung's.
// Only pages dirtied since the previous Capture are copied.
func (l *Ladder) Capture(m *Machine) {
	l.capture(m, m.dirty)
	m.resetDirty()
}

// capture is Capture with the set of pages written since the previous
// rung given explicitly, for a caller that shares the machine's dirty
// bits with another consumer (captureGolden).
func (l *Ladder) capture(m *Machine, dirty []uint64) {
	if len(m.ram) != l.ramSize {
		panic("machine: Ladder.Capture with mismatched RAM size")
	}
	last := l.rungs[len(l.rungs)-1]
	if m.cycles <= last.cycles {
		panic(fmt.Sprintf("machine: Ladder.Capture at cycle %d, not after last rung (cycle %d)",
			m.cycles, last.cycles))
	}
	prev := l.views[len(l.views)-1]
	view := make([][]byte, len(prev))
	copy(view, prev)
	for p := range view {
		if pageBit(dirty, p) {
			lo, hi := m.pageBounds(p)
			view[p] = append([]byte(nil), m.ram[lo:hi]...)
		}
	}
	// The golden run only ever appends serial output, so the suffix
	// beyond the previous rung's length is the new output.
	l.serial = append(l.serial, m.serial[last.serialLen:]...)
	l.rungs = append(l.rungs, m.rungMeta(len(m.serial)))
	l.views = append(l.views, view)
}

// Rungs returns the number of rungs (at least 1: the initial state).
func (l *Ladder) Rungs() int { return len(l.rungs) }

// RungCycle returns the cycle count of rung i.
func (l *Ladder) RungCycle(i int) uint64 { return l.rungs[i].cycles }

// Find returns the index of the highest rung whose cycle count is at or
// below cycle — the best starting point for reaching that cycle. Rung 0
// is at the initial state, so Find never fails for cycle ≥ RungCycle(0).
func (l *Ladder) Find(cycle uint64) int {
	// Binary search: first rung strictly above cycle, minus one.
	lo, hi := 0, len(l.rungs)
	for lo < hi {
		mid := (lo + hi) / 2
		if l.rungs[mid].cycles <= cycle {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		panic(fmt.Sprintf("machine: Ladder.Find(%d) below rung 0 (cycle %d)",
			cycle, l.rungs[0].cycles))
	}
	return lo - 1
}

// PagesStored returns the total number of page copies the ladder holds,
// counting shared (unchanged) pages once. It quantifies the delta-
// snapshot memory saving versus Rungs() × numPages full snapshots.
func (l *Ladder) PagesStored() int {
	n := 0
	for i, view := range l.views {
		for p := range view {
			if i == 0 || &view[p][0] != &l.views[i-1][p][0] {
				n++
			}
		}
	}
	return n
}

// Cursor restores ladder rungs onto one worker machine, copying only the
// pages that differ from the machine's last-restored state. A Cursor is
// bound to its machine and is not safe for concurrent use; create one
// Cursor per worker.
type Cursor struct {
	l     *Ladder
	m     *Machine
	rung  int
	valid bool
}

// NewCursor creates a cursor for restoring l's rungs onto m. The machine
// must have the same RAM size as the ladder's source machine (and, for
// the restored state to be meaningful, the same program and config).
func (l *Ladder) NewCursor(m *Machine) *Cursor {
	if len(m.ram) != l.ramSize {
		panic("machine: Ladder.NewCursor with mismatched RAM size")
	}
	return &Cursor{l: l, m: m}
}

// Invalidate drops the cursor's knowledge of the machine's state: the
// next Restore copies every page. Required when something other than
// the machine's own dirty-tracked execution consumed or reset the dirty
// bits — the fork scan's Forker does exactly that (machine/fork.go), so
// it invalidates its parent cursor before every batch restore.
func (c *Cursor) Invalidate() { c.valid = false }

// Restore sets the cursor's machine to the state of rung r.
//
// The first restore copies every page. Subsequent restores copy only the
// union of (a) pages the machine dirtied since the previous Restore —
// stores and FlipBit injections during the experiment — and (b) pages
// whose content differs between the previous rung and rung r, detected
// by backing-array identity. Any full-state mutation of the machine
// outside the cursor's knowledge (Machine.Restore) marks all pages
// dirty, so reuse stays conservative-correct.
func (c *Cursor) Restore(r int) {
	l, m := c.l, c.m
	meta := l.rungs[r]
	view := l.views[r]
	if !c.valid {
		for p := range view {
			lo, hi := m.pageBounds(p)
			copy(m.ram[lo:hi], view[p])
		}
	} else {
		prev := l.views[c.rung]
		for p := range view {
			if m.pageDirty(p) || &view[p][0] != &prev[p][0] {
				lo, hi := m.pageBounds(p)
				copy(m.ram[lo:hi], view[p])
			}
		}
	}
	m.resetDirty()
	m.regs = meta.regs
	m.pc = meta.pc
	m.cycles = meta.cycles
	m.status = meta.status
	m.exc = meta.exc
	m.serial = append(m.serial[:0], l.serial[:meta.serialLen]...)
	m.detects = meta.detects
	m.corrects = meta.corrects
	m.inIRQ = meta.inIRQ
	m.savedPC = meta.savedPC
	m.fireAt = meta.fireAt
	// The golden run never has a pending instruction skip; clear any
	// leftover from an aborted experiment on this worker.
	m.skipNext = false
	c.rung = r
	c.valid = true
}
