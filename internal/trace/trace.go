// Package trace records golden (fault-free) runs of fav32 programs.
//
// A golden run provides three things to the fault-injection pipeline:
//
//  1. the reference behavior (serial output, termination status) against
//     which fault-injection experiment outcomes are classified,
//  2. the fault-space dimensions: the runtime Δt in cycles and the memory
//     size Δm in bits (w = Δt·Δm, §III-A of the paper), and
//  3. the memory-access trace that def/use pruning (internal/pruning)
//     partitions into equivalence classes.
package trace

import (
	"fmt"

	"faultspace/internal/isa"
	"faultspace/internal/machine"
)

// Access is one RAM access performed by the traced run.
type Access struct {
	Cycle uint64 // cycle of the accessing instruction (1-based)
	Addr  uint32 // first byte address accessed
	Size  uint8  // bytes accessed (1 or 4)
	Kind  machine.AccessKind
}

// Golden is the record of a fault-free benchmark run.
type Golden struct {
	Name     string
	Cycles   uint64 // Δt: runtime in CPU cycles
	RAMBits  uint64 // Δm: main-memory size in bits
	Serial   []byte // reference output
	Detects  uint64 // detection signals during the fault-free run
	Corrects uint64 // correction signals during the fault-free run
	Accesses []Access

	// RegAccesses is the register-file def/use trace for the §VI-B
	// register fault-space generalization. Registers are mapped into a
	// synthetic byte space: register r occupies bytes [(r-1)*4, r*4).
	// r0 is hardwired zero and does not appear. Within one cycle, reads
	// precede writes (an instruction consumes its sources before
	// producing its destination).
	RegAccesses []Access

	// The per-cycle control-flow trace for the attack-style fault spaces
	// (instruction skip, PC corruption). All three slices have length
	// Cycles; slot t uses index t−1.
	//
	// BoundaryPCs[t−1] is the program counter at injection slot t, before
	// any timer redirect — the value a PC-corruption fault at slot t
	// flips.
	BoundaryPCs []uint32
	// ExecPCs[t−1] is the PC the instruction retiring at cycle t actually
	// executed from (after any timer redirect) — the instruction an
	// instruction-skip fault at slot t suppresses.
	ExecPCs []uint32
	// IRQEntries[t−1] reports whether the timer redirect fired at slot
	// t's boundary, making cycle t the first handler instruction.
	IRQEntries []bool
}

// SpaceSize returns the raw memory fault-space size w = Δt · Δm.
func (g *Golden) SpaceSize() uint64 { return g.Cycles * g.RAMBits }

// RegBits returns the register fault-space memory dimension: 15 writable
// registers × 32 bits.
func (g *Golden) RegBits() uint64 { return machine.RegSpaceBits }

// Record executes the program without faults and records its memory-access
// trace. The run must halt normally within maxCycles cycles; a golden run
// that crashes, aborts or exceeds the budget is a benchmark bug and yields
// an error.
func Record(name string, cfg machine.Config, code []isa.Instruction, image []byte, maxCycles uint64) (*Golden, error) {
	m, err := machine.New(cfg, code, image)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	g := &Golden{
		Name:    name,
		RAMBits: m.RAMBits(),
	}
	m.SetMemHook(func(cycle uint64, addr uint32, size uint8, kind machine.AccessKind) {
		g.Accesses = append(g.Accesses, Access{Cycle: cycle, Addr: addr, Size: size, Kind: kind})
	})
	var prevIRQ bool
	m.SetExecHook(func(cycle uint64, pc uint32, ins isa.Instruction) {
		// The hook fires after the timer redirect, so pc here is where
		// the instruction really executes from; prevIRQ is captured at
		// the boundary by the step loop below.
		g.ExecPCs = append(g.ExecPCs, pc)
		g.IRQEntries = append(g.IRQEntries, m.InIRQ() && !prevIRQ)
		// Reads first (deduplicated: "add r1, r2, r2" reads r2 once),
		// then the write — matching intra-instruction dataflow order.
		var seen [isa.NumRegs]bool
		for _, r := range ins.Reads() {
			if r == isa.RegZero || seen[r] {
				continue
			}
			seen[r] = true
			g.RegAccesses = append(g.RegAccesses, Access{
				Cycle: cycle, Addr: uint32(r-1) * 4, Size: 4, Kind: machine.AccessRead,
			})
		}
		if w := ins.WritesReg(); w > int(isa.RegZero) {
			g.RegAccesses = append(g.RegAccesses, Access{
				Cycle: cycle, Addr: uint32(w-1) * 4, Size: 4, Kind: machine.AccessWrite,
			})
		}
	})
	// Step explicitly instead of Run: between Steps, m.PC() is exactly
	// the pre-redirect boundary PC that a PC-corruption fault at the next
	// slot would flip.
	for m.Status() == machine.StatusRunning && m.Cycles() < maxCycles {
		g.BoundaryPCs = append(g.BoundaryPCs, m.PC())
		prevIRQ = m.InIRQ()
		if _, err := m.Step(); err != nil {
			break
		}
	}
	status := m.Status()
	switch status {
	case machine.StatusHalted:
		// success
	case machine.StatusRunning:
		return nil, fmt.Errorf("trace: golden run of %q did not halt within %d cycles", name, maxCycles)
	case machine.StatusExcepted:
		return nil, fmt.Errorf("trace: golden run of %q raised %s at pc=%d cycle=%d",
			name, m.Exception(), m.PC(), m.Cycles())
	case machine.StatusAborted:
		return nil, fmt.Errorf("trace: golden run of %q aborted at cycle %d", name, m.Cycles())
	default:
		return nil, fmt.Errorf("trace: golden run of %q ended with unexpected status %s", name, status)
	}
	g.Cycles = m.Cycles()
	g.Serial = m.Serial()
	g.Detects = m.DetectCount()
	g.Corrects = m.CorrectCount()
	return g, nil
}
