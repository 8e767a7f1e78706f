package machine

// Forker clones one machine's state onto another cheaply and repeatedly:
// the fork-scan primitive. A parent ("cursor") machine advances
// monotonically through the golden run; at each injection cycle the scan
// forks a child, injects the fault into the child and runs only the
// faulty suffix there — the golden prefix is never replayed per
// experiment.
//
// The first Fork (and the first after Invalidate) copies every RAM page.
// Subsequent Forks copy only the union of
//
//	(a) pages the CHILD dirtied since the previous Fork — the faulty
//	    suffix's stores and the injected flip itself — and
//	(b) pages the PARENT dirtied since the previous Fork — the golden
//	    cycles it advanced in between.
//
// That union is exactly the set of pages on which the two machines can
// disagree: at the previous Fork they were bit-identical, and RAM only
// ever changes through dirty-tracked stores and flips. The child
// therefore cannot observe any faulty state from a previous experiment —
// every page it mutated is rewritten from the parent — which is the
// soundness half of DESIGN.md §4c.
//
// To make "dirtied since the previous Fork" a direct bitset read, Fork
// RESETS both machines' dirty sets once the copy is done. The forker
// consequently owns the parent's dirty tracking, and any operation that
// rewrites the parent wholesale (Machine.Restore, Cursor.Restore) must be
// followed by Invalidate.
//
// Before resetting them, Fork accumulates the parent's bits in a stale
// set: the pages of the golden state that changed since a Matcher last
// hashed them (index.go), which is what lets a probe hash only the pages
// the child dirtied itself.
//
// A Forker is bound to its two machines and not safe for concurrent
// use; create one per scan worker.
type Forker struct {
	parent, child *Machine
	valid         bool
	stale         []uint64
}

// NewForker creates a forker copying parent state onto child. Both
// machines must share the target configuration (same RAM size, program
// and machine config); the child's own state is irrelevant — the first
// Fork overwrites it wholesale.
func NewForker(parent, child *Machine) *Forker {
	if len(parent.ram) != len(child.ram) {
		panic("machine: NewForker with mismatched RAM size")
	}
	return &Forker{parent: parent, child: child, stale: newPageSet(len(parent.ram))}
}

// Invalidate forces the next Fork to copy every page. Required after any
// operation that mutates either machine outside dirty tracking or
// resets dirty bits — in the fork scan, the once-per-batch rung restore
// that repositions the parent.
func (f *Forker) Invalidate() { f.valid = false }

// Fork makes the child a state-identical copy of the parent, copying
// only the RAM pages that can differ (see the type comment), and clears
// both machines' dirty sets so the next Fork sees exactly the pages
// mutated by the upcoming experiment and golden advance.
func (f *Forker) Fork() {
	p, c := f.parent, f.child
	if !f.valid {
		copy(c.ram, p.ram)
		fillPages(f.stale)
	} else {
		for i, d := range p.dirty {
			f.stale[i] |= d
		}
		np := numPages(len(p.ram))
		for pg := 0; pg < np; pg++ {
			if c.dirty[pg>>6]|p.dirty[pg>>6] == 0 {
				// Skip whole clean 64-page runs word-wise.
				pg |= 63
				continue
			}
			if (c.dirty[pg>>6]|p.dirty[pg>>6])&(1<<(uint(pg)&63)) != 0 {
				lo, hi := p.pageBounds(pg)
				copy(c.ram[lo:hi], p.ram[lo:hi])
			}
		}
	}
	p.resetDirty()
	c.resetDirty()
	c.core = p.core
	c.serial = append(c.serial[:0], p.serial...)
	f.valid = true
}
