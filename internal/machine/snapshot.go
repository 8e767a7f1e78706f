package machine

// Snapshot is a full copy of the mutable machine state. Snapshots let the
// campaign engine fork a run at an injection slot instead of re-executing
// the prefix from the reset state for every experiment.
type Snapshot struct {
	ram      []byte
	regs     [16]uint32
	pc       uint32
	cycles   uint64
	status   Status
	exc      Exception
	serial   []byte
	detects  uint64
	corrects uint64
	inIRQ    bool
	savedPC  uint32
	fireAt   uint64
	skipNext bool
}

// Snapshot captures the current machine state.
func (m *Machine) Snapshot() *Snapshot {
	s := &Snapshot{
		ram:      make([]byte, len(m.ram)),
		regs:     m.regs,
		pc:       m.pc,
		cycles:   m.cycles,
		status:   m.status,
		exc:      m.exc,
		serial:   make([]byte, len(m.serial)),
		detects:  m.detects,
		corrects: m.corrects,
		inIRQ:    m.inIRQ,
		savedPC:  m.savedPC,
		fireAt:   m.fireAt,
		skipNext: m.skipNext,
	}
	copy(s.ram, m.ram)
	copy(s.serial, m.serial)
	return s
}

// Restore resets the machine state to the snapshot. The snapshot must have
// been taken from a machine with the same configuration and program.
func (m *Machine) Restore(s *Snapshot) {
	if len(m.ram) != len(s.ram) {
		// Configuration mismatch is a programming error in the caller;
		// fail loudly instead of corrupting state.
		panic("machine: Restore with mismatched RAM size")
	}
	copy(m.ram, s.ram)
	// A full restore rewrites all of RAM; conservatively mark every page
	// dirty so any Cursor attached to this machine stays correct.
	m.markAllDirty()
	m.regs = s.regs
	m.pc = s.pc
	m.cycles = s.cycles
	m.status = s.status
	m.exc = s.exc
	m.serial = m.serial[:0]
	m.serial = append(m.serial, s.serial...)
	m.detects = s.detects
	m.corrects = s.corrects
	m.inIRQ = s.inIRQ
	m.savedPC = s.savedPC
	m.fireAt = s.fireAt
	m.skipNext = s.skipNext
}
