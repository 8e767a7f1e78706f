package machine

import "fmt"

// Ladder is a sequence of snapshots ("rungs") of one deterministic run,
// captured at increasing cycle counts.
//
// The campaign's fork provider builds one Ladder during the golden run
// (CaptureGolden); each unit of experiments restores the rung at-or-below
// its first injection cycle once. Rungs are unit anchors and restore
// sources only — reconvergence is matched against the GoldenIndex — so a
// campaign holds a handful of them, each a full copy of a RAM of a few
// pages.
//
// A Ladder is immutable after construction and safe for concurrent use
// by any number of Cursors (each Cursor belongs to one worker machine).
type Ladder struct {
	rungs []*Snapshot
}

// NewLadder creates a ladder whose first rung (rung 0) is the machine's
// current state — typically the reset state, before any instruction has
// executed.
func NewLadder(m *Machine) *Ladder {
	return &Ladder{rungs: []*Snapshot{m.Snapshot()}}
}

// Capture appends the machine's current state as a new rung. The machine
// must run the program the ladder was started on, and its cycle count
// must exceed the last rung's.
func (l *Ladder) Capture(m *Machine) {
	last := l.rungs[len(l.rungs)-1]
	if len(m.ram) != len(last.ram) {
		panic("machine: Ladder.Capture with mismatched RAM size")
	}
	if m.cycles <= last.cycles {
		panic(fmt.Sprintf("machine: Ladder.Capture at cycle %d, not after last rung (cycle %d)",
			m.cycles, last.cycles))
	}
	l.rungs = append(l.rungs, m.Snapshot())
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

// PagesStored returns the number of RAM page copies the ladder holds:
// every rung stores all of RAM.
func (l *Ladder) PagesStored() int {
	return len(l.rungs) * numPages(len(l.rungs[0].ram))
}

// Cursor restores ladder rungs onto one worker machine. A Cursor is bound
// to its machine and is not safe for concurrent use; create one Cursor
// per worker.
type Cursor struct {
	l *Ladder
	m *Machine
}

// NewCursor creates a cursor for restoring l's rungs onto m. The machine
// must have the same RAM size as the ladder's source machine (and, for
// the restored state to be meaningful, the same program and config).
func (l *Ladder) NewCursor(m *Machine) *Cursor {
	if len(m.ram) != len(l.rungs[0].ram) {
		panic("machine: Ladder.NewCursor with mismatched RAM size")
	}
	return &Cursor{l: l, m: m}
}

// Restore sets the cursor's machine to the state of rung r.
func (c *Cursor) Restore(r int) { c.m.Restore(c.l.rungs[r]) }
