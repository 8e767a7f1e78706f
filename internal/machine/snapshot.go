package machine

// Snapshot is a full copy of the mutable machine state. Snapshots let the
// campaign engine fork a run at an injection slot instead of re-executing
// the prefix from the reset state for every experiment; a ladder rung is
// one.
type Snapshot struct {
	core
	ram, serial []byte
}

// Snapshot captures the current machine state.
func (m *Machine) Snapshot() *Snapshot {
	return &Snapshot{
		core:   m.core,
		ram:    append([]byte(nil), m.ram...),
		serial: append([]byte(nil), m.serial...),
	}
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
	// dirty so no consumer of the dirty set assumes a baseline that was
	// rewritten wholesale.
	m.markAllDirty()
	m.core = s.core
	m.serial = append(m.serial[:0], s.serial...)
}
