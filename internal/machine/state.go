package machine

// SerialLen returns the length of the serial output produced so far,
// without copying it (compare Serial).
func (m *Machine) SerialLen() int { return len(m.serial) }

// MaxSerial returns the effective serial output cap: a store to
// PortSerial beyond it raises ExcSerialLimit.
func (m *Machine) MaxSerial() int { return m.maxSerial }

// SerialView returns the serial output as a read-only view into the
// machine's live buffer. The slice is invalidated by any subsequent
// Step, Run or state restore; callers must not mutate or retain it.
// It exists so classification can compare output without per-experiment
// copying (compare Serial).
func (m *Machine) SerialView() []byte { return m.serial }

// PageSize is the granularity of dirty-page tracking in bytes. It is a
// multiple of 4 so an aligned word store always lies within one page.
// Smaller pages mean less copying per fork and per indexed golden state
// but more bookkeeping; 256 bytes keeps the whole bitset of even the
// largest permissible RAM (64 KiB = 256 pages) in four words.
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

// markAllDirty conservatively marks every page dirty.
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
	return lo, min(lo+PageSize, len(m.ram))
}
