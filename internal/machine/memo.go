package machine

import (
	"runtime"
	"sync"
	"unsafe"
)

// memoBudget bounds the memory one TrajectoryMemo may hold: entries,
// their RAM copies, the table, the recorded run ends and their output.
// A policy constant, not an outcome input — a store that is full is
// emptied and refilled, and a run the store does not know simply runs
// on.
const memoBudget = 8 << 20

// memoSerialShare is the fraction of memoBudget the recorded output of
// halted runs may take.
const memoSerialShare = 8

// Remainder is how a run continues from the state it is in: the status
// and exception it ends in, and the serial output and the detect and
// correct events it adds before then. A run's final observables are its
// current ones plus its remainder; a run that has ended has an empty
// remainder with its own status.
type Remainder struct {
	Status   Status
	Exc      Exception
	Serial   []byte
	Detects  uint64
	Corrects uint64
}

// memoEntry is one recorded faulty state: the probe key, the cycle and
// serial length it was seen at, the run's event counts there, its RAM
// (the ram slab's ordinal-th stretch) and the run end it leads to.
type memoEntry struct {
	probeKey
	cycle     uint64
	serialLen int
	detects   uint64
	corrects  uint64
	hash      uint64
	end       int // index into ends; len(ends) while the run is open
}

// memoEnd is how one recorded run ended. Only a halted end keeps its
// output and event counts: classification and the objective read them
// for halted runs only.
type memoEnd struct {
	status   Status
	exc      Exception
	from     int // the serial length the stored output starts at
	off, n   int // the stored output: serial[off:off+n]
	detects  uint64
	corrects uint64
}

// Per-entry bytes the budget is divided by: the entry and its share of
// the ends, and a table at most half full whose size doubles (under four
// slots an entry).
const memoEntryBytes = int(unsafe.Sizeof(memoEntry{})+unsafe.Sizeof(memoEnd{})) + 4*8

// TrajectoryMemo is one scan worker's store of faulty states: a state
// that a faulty run passed through at some cycle, with how that run
// ended. The fork provider keeps one for a session and offers it every
// run's state at fixed absolute cycles (Recall). A run whose state at
// cycle c equals one an earlier run had at the same cycle c continues
// exactly as that run did: the machine is deterministic, the cycle
// budget is absolute, so the same cycle leaves the same budget, the
// serial length (part of the state) leaves the same room under the
// serial cap, and MMIO ports are write-only, so neither the output
// already written nor the event counters feed back. Its outcome is
// composed from the earlier run's remainder instead of simulated.
//
// States are keyed like the golden index's (GoldenIndex): the probe key
// and RAM, here with the cycle and serial length besides. The hash only
// finds candidates, from the Matcher's incrementally kept page digests;
// every candidate is confirmed by the same full compare as a golden
// match (sameState), so soundness never rests on the hash
// (TestMemoHashCollisions degrades it to a constant).
//
// Each entry keeps a copy of RAM in a slab, indexed by an open-addressed
// table. The slabs grow by doubling within memoBudget and are reused by
// every run, and by the next store made once Release hands them back,
// the table cleared; a probe allocates nothing unless a slab grows past
// what the stores before it held. The entry bound depends on the RAM
// size, so a store may take over slabs larger than its own bounds allow:
// it keeps them while the budget has room and cuts them down to their
// contents once a growing slab needs it (fit). When the store is full it
// is emptied.
//
// Not safe for concurrent use; create one per worker.
type TrajectoryMemo struct {
	ramSize    int
	maxEntries int
	maxSerial  int
	hashMask   uint64
	// table is open-addressed with linear probing: the high half of a
	// slot is a tag from the state hash, the low half 1 + the entry
	// ordinal; 0 is empty. At most half full.
	table   []uint64
	entries []memoEntry
	ram     []byte
	ends    []memoEnd
	serial  []byte
	// open is the first entry of the current run, whose end is not known
	// yet.
	open int

	// Probes counts Recall calls, Hits confirmed states with a known end.
	Probes, Hits uint64
}

// memoFree holds released stores for the next ones made: a scan
// session's workers start from the slabs and table that earlier
// sessions grew instead of growing (allocating, zeroing and copying)
// their own. It keeps at most GOMAXPROCS stores — as many as a session
// has workers by default — so a process retains at most GOMAXPROCS ×
// memoBudget bytes of them, and only as much as its sessions grew.
// Unlike a sync.Pool, which garbage collections empty, it keeps them
// for the life of the process.
var memoFree struct {
	sync.Mutex
	stores []*TrajectoryMemo
}

// NewTrajectoryMemo creates an empty store for machines with ramSize
// bytes of RAM. hashMask is ANDed onto every state hash: all ones, except
// in tests that make every state a candidate of every probe.
func NewTrajectoryMemo(ramSize int, hashMask uint64) *TrajectoryMemo {
	var tr *TrajectoryMemo
	memoFree.Lock()
	if n := len(memoFree.stores); n > 0 {
		tr = memoFree.stores[n-1]
		memoFree.stores = memoFree.stores[:n-1]
	}
	memoFree.Unlock()
	if tr == nil {
		tr = new(TrajectoryMemo)
	}
	clear(tr.table)
	*tr = TrajectoryMemo{
		ramSize:    ramSize,
		maxEntries: max((memoBudget-memoBudget/memoSerialShare)/(memoEntryBytes+ramSize), 1),
		maxSerial:  memoBudget / memoSerialShare,
		hashMask:   hashMask,
		table:      tr.table,
		entries:    tr.entries[:0],
		ram:        tr.ram[:0],
		ends:       tr.ends[:0],
		serial:     tr.serial[:0],
	}
	return tr
}

// Release hands the store's slabs and table to the next store made. The
// store must not be used afterwards.
func (tr *TrajectoryMemo) Release() {
	memoFree.Lock()
	if len(memoFree.stores) < runtime.GOMAXPROCS(0) {
		memoFree.stores = append(memoFree.stores, tr)
	}
	memoFree.Unlock()
}

// held returns the memory the store holds: its slabs' capacities and
// its table. It stays within memoBudget.
func (tr *TrajectoryMemo) held() int {
	return cap(tr.entries)*int(unsafe.Sizeof(memoEntry{})) + cap(tr.ram) + 8*len(tr.table) +
		cap(tr.ends)*int(unsafe.Sizeof(memoEnd{})) + cap(tr.serial)
}

// fit makes room within memoBudget for a slab or the table to grow by
// extra bytes. If there is none, every slab and the table that a store
// for another RAM size grew past this store's bounds is cut down to its
// contents: then each is within its bound, and the bounds add up to at
// most memoBudget.
func (tr *TrajectoryMemo) fit(extra int) {
	if tr.held()+extra <= memoBudget {
		return
	}
	tr.entries = shrink(tr.entries, tr.maxEntries)
	tr.ends = shrink(tr.ends, tr.maxEntries)
	tr.ram = shrink(tr.ram, tr.maxEntries*tr.ramSize)
	if len(tr.table) > max(4*tr.maxEntries, 256) {
		slots := 256
		for 2*(len(tr.entries)+1) > slots {
			slots *= 2
		}
		tr.rehash(slots)
	}
}

// shrink returns s cut down to its contents if its capacity is past
// limit.
func shrink[T any](s []T, limit int) []T {
	if cap(s) <= limit {
		return s
	}
	t := make([]T, len(s))
	copy(t, s)
	return t
}

// Bytes returns the memory the store's contents take: entries, their
// RAM, the table, run ends and their output.
func (tr *TrajectoryMemo) Bytes() int {
	return len(tr.entries)*int(unsafe.Sizeof(memoEntry{})) + len(tr.ram) + 8*len(tr.table) +
		len(tr.ends)*int(unsafe.Sizeof(memoEnd{})) + len(tr.serial)
}

// memoHash digests a state for the table: the probe key's pre-hash and
// the RAM hash as for the golden index, then the cycle and serial length.
func memoHash(keyHash, ramHash, cycle uint64, serialLen int) uint64 {
	h := mix(mix(combineHash(keyHash, ramHash), cycle), uint64(serialLen))
	return h ^ h>>32
}

// Recall looks the matcher's child up among the states recorded at its
// current cycle. On a confirmed hit it returns the earlier run's
// remainder from that state. Otherwise it records the state as one of
// the current run's, whose end Close fills in. The child must be running
// and must not have been rewritten since the forker's last Fork other
// than by its own execution and fault injection.
func (tr *TrajectoryMemo) Recall(mt *Matcher) (Remainder, bool) {
	m := mt.f.child
	tr.Probes++
	if m.skipNext {
		// A pending instruction skip is state the store does not hold.
		return Remainder{}, false
	}
	h := memoHash(m.keyHash(), mt.ramHash(), m.cycles, len(m.serial)) & tr.hashMask
	if len(tr.table) > 0 {
		mask := uint64(len(tr.table) - 1)
		for s := h & mask; tr.table[s] != 0; s = (s + 1) & mask {
			if tr.table[s]>>32 != h>>32 {
				continue
			}
			i := int(uint32(tr.table[s])) - 1
			e := &tr.entries[i]
			if e.cycle != m.cycles || e.serialLen != len(m.serial) ||
				!sameState(&e.probeKey, m, func(_, lo, hi int) []byte { return tr.ram[i*tr.ramSize+lo : i*tr.ramSize+hi] }) {
				continue
			}
			if e.end == len(tr.ends) {
				// Known, but its end is not: the run is still open.
				return Remainder{}, false
			}
			tr.Hits++
			return tr.remainder(e), true
		}
	}
	tr.insert(m, h)
	return Remainder{}, false
}

// remainder is the recorded remainder of entry e's run from e's state.
func (tr *TrajectoryMemo) remainder(e *memoEntry) Remainder {
	end := &tr.ends[e.end]
	rem := Remainder{Status: end.status, Exc: end.exc}
	if end.status == StatusHalted {
		rem.Serial = tr.serial[end.off+e.serialLen-end.from : end.off+end.n]
		rem.Detects = end.detects - e.detects
		rem.Corrects = end.corrects - e.corrects
	}
	return rem
}

// insert records m's state, hash h, as an entry of the current run,
// emptying the store first if it is full.
func (tr *TrajectoryMemo) insert(m *Machine, h uint64) {
	if len(tr.entries) == tr.maxEntries {
		tr.empty()
	}
	if 2*(len(tr.entries)+1) > len(tr.table) {
		tr.rehash(max(2*len(tr.table), 256))
	}
	i := len(tr.entries)
	tr.entries = grow(tr, tr.entries, 1, tr.maxEntries)
	tr.entries = append(tr.entries, memoEntry{
		cycle: m.cycles, serialLen: len(m.serial), detects: m.detects, corrects: m.corrects,
		hash: h, end: len(tr.ends),
	})
	tr.entries[i].load(m)
	tr.ram = grow(tr, tr.ram, tr.ramSize, tr.maxEntries*tr.ramSize)
	tr.ram = append(tr.ram, m.ram...)
	tr.place(h, i)
}

// place puts entry i, hash h, into the table.
func (tr *TrajectoryMemo) place(h uint64, i int) {
	mask := uint64(len(tr.table) - 1)
	s := h & mask
	for tr.table[s] != 0 {
		s = (s + 1) & mask
	}
	tr.table[s] = h>>32<<32 | uint64(i+1)
}

// rehash rebuilds the table at the given number of slots.
func (tr *TrajectoryMemo) rehash(slots int) {
	tr.fit(8 * (slots - len(tr.table)))
	tr.table = make([]uint64, slots)
	for i := range tr.entries {
		tr.place(tr.entries[i].hash, i)
	}
}

// empty drops every entry and run end, keeping the slabs.
func (tr *TrajectoryMemo) empty() {
	clear(tr.table)
	tr.entries, tr.ram, tr.ends, tr.serial = tr.entries[:0], tr.ram[:0], tr.ends[:0], tr.serial[:0]
	tr.open = 0
}

// Close ends the current run: rem is how it continues from the state m
// is in now, and every state Recall recorded for the run is stored with
// the end it leads to. The remainder must be exact — a run-out's own end,
// a composable golden match or a memo hit — since later runs are composed
// from it.
func (tr *TrajectoryMemo) Close(m *Machine, rem Remainder) {
	if tr.open == len(tr.entries) {
		return
	}
	end := memoEnd{status: rem.Status, exc: rem.Exc}
	if rem.Status == StatusHalted {
		from := tr.entries[tr.open].serialLen
		n := len(m.serial) - from + len(rem.Serial)
		if len(tr.serial)+n > tr.maxSerial {
			tr.empty()
			return
		}
		tr.serial = grow(tr, tr.serial, n, tr.maxSerial)
		end.from, end.off, end.n = from, len(tr.serial), n
		tr.serial = append(append(tr.serial, m.serial[from:]...), rem.Serial...)
		end.detects, end.corrects = m.detects+rem.Detects, m.corrects+rem.Corrects
	}
	tr.ends = grow(tr, tr.ends, 1, tr.maxEntries)
	tr.ends = append(tr.ends, end)
	tr.open = len(tr.entries)
}

// grow returns s, one of tr's slabs, with room for n more elements, its
// capacity doubled but at most limit.
func grow[T any](tr *TrajectoryMemo, s []T, n, limit int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	var elem T
	c := max(min(2*cap(s), limit), len(s)+n, min(64, limit))
	tr.fit((c - cap(s)) * int(unsafe.Sizeof(elem)))
	t := make([]T, len(s), c)
	copy(t, s)
	return t
}
