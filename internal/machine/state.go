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
