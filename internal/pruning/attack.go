// Attack-style fault spaces: instruction skip and PC corruption.
//
// Unlike the memory/register spaces, these models corrupt control flow,
// so the def/use interval argument does not apply directly. Each space
// gets its own rederived pruning rule:
//
//   - Skip: a slot is known No Effect exactly when the skipped dynamic
//     instruction provably cannot change any state that is ever observed
//     again — a nop, a fallen-through conditional branch, or a
//     straight-line data instruction all of whose written bits are dead
//     (not read before their next overwrite) in the single-bit def/use
//     partitions of the memory and register spaces. Every other slot is
//     its own weight-1 class.
//
//   - PC: flipping bit b at a boundary whose flipped target lies outside
//     the program deterministically raises ExcBadPC on the very next
//     fetch; no other machine state has been touched, so every such
//     coordinate yields the same outcome. Maximal runs of consecutive
//     such boundaries collapse into one class per bit. Boundaries where
//     the timer redirect fires are excluded from grouping (the corrupted
//     PC is saved as the handler's return address instead of fetched),
//     as are flips that land inside the program; both stay weight-1
//     classes.
//
// Both rules are cross-checked empirically by the differential oracle
// harness (internal/experiments, DESIGN.md invariant 13).
package pruning

import (
	"fmt"
	"sort"

	"faultspace/internal/isa"
	"faultspace/internal/machine"
	"faultspace/internal/trace"
)

// needsControlTrace verifies the golden run recorded the per-cycle
// control-flow trace the attack spaces prune against.
func needsControlTrace(g *trace.Golden) error {
	if uint64(len(g.BoundaryPCs)) != g.Cycles ||
		uint64(len(g.ExecPCs)) != g.Cycles ||
		uint64(len(g.IRQEntries)) != g.Cycles {
		return fmt.Errorf("pruning: golden trace of %q lacks the per-cycle control-flow record (have %d/%d/%d entries for %d cycles)",
			g.Name, len(g.BoundaryPCs), len(g.ExecPCs), len(g.IRQEntries), g.Cycles)
	}
	return nil
}

// skipPrunable reports whether op is a straight-line data instruction:
// no control transfer, no IRQ-state mutation. Skipping one leaves the
// PC, cycle count and timer phase exactly on the golden trajectory, so
// the only state difference is the skipped register/memory write.
func skipPrunable(op isa.Op) bool {
	switch op {
	case isa.OpLi, isa.OpMov,
		isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor,
		isa.OpShl, isa.OpShr, isa.OpSar, isa.OpMul, isa.OpSlt, isa.OpSltu,
		isa.OpAddi, isa.OpAndi, isa.OpOri, isa.OpXori, isa.OpShli,
		isa.OpShri, isa.OpSlti,
		isa.OpLw, isa.OpLb, isa.OpSw, isa.OpSb, isa.OpSwi, isa.OpSbi,
		isa.OpRdspc:
		return true
	}
	return false
}

// conditionalBranch reports whether op is a conditional branch — the one
// control-transfer family whose skip is a no-op when the golden run fell
// through (skipping a not-taken branch reproduces the fall-through).
func conditionalBranch(op isa.Op) bool {
	switch op {
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltu, isa.OpBgeu:
		return true
	}
	return false
}

// BuildSkip partitions the instruction-skip fault space: one coordinate
// per injection slot t ∈ [1, Δt], skipping the dynamic instruction that
// retires at cycle t. code must be the traced program.
//
// Deadness of a skipped write is decided against the single-bit def/use
// partitions: leaving a register or memory byte at its pre-instruction
// value corrupts only bits that the partition proves are overwritten
// before their next read (or never read again), so execution continues on
// the golden access trace and the outcome is the golden outcome. A store
// with no RAM write access in the golden trace went to an MMIO port
// (serial/detect/correct/abort) and is never prunable.
func BuildSkip(g *trace.Golden, code []isa.Instruction) (*FaultSpace, error) {
	if err := needsControlTrace(g); err != nil {
		return nil, err
	}
	mem, err := Build(g)
	if err != nil {
		return nil, err
	}
	regs, err := BuildRegisters(g)
	if err != nil {
		return nil, err
	}

	// Index the golden RAM write accesses by cycle. Accesses are recorded
	// in execution order, so per-cycle runs are contiguous.
	writesAt := make(map[uint64][]trace.Access)
	for _, a := range g.Accesses {
		if a.Kind == machine.AccessWrite {
			writesAt[a.Cycle] = append(writesAt[a.Cycle], a)
		}
	}

	// deadMem reports whether every bit of RAM byte addr is dead at slot
	// t+1. All bits of a byte share one event stream (accesses cover
	// whole bytes), so probing one bit suffices.
	deadMem := func(t uint64, addr uint32) (bool, error) {
		if t >= g.Cycles {
			return true, nil // nothing executes after the final cycle
		}
		_, live, err := mem.Locate(t+1, uint64(addr)*8)
		return !live, err
	}
	deadReg := func(t uint64, r int) (bool, error) {
		if t >= g.Cycles {
			return true, nil
		}
		_, live, err := regs.Locate(t+1, uint64(r-1)*32)
		return !live, err
	}

	fs := &FaultSpace{
		Kind:   SpaceSkip,
		Cycles: g.Cycles,
		Bits:   1,
	}
	for t := uint64(1); t <= g.Cycles; t++ {
		pc := g.ExecPCs[t-1]
		if pc >= uint32(len(code)) {
			return nil, fmt.Errorf("pruning: golden ExecPC %d at cycle %d outside program of %d instructions",
				pc, t, len(code))
		}
		ins := code[pc]
		noEffect := false
		switch {
		case ins.Op == isa.OpNop:
			noEffect = true
		case conditionalBranch(ins.Op) && t < g.Cycles && g.BoundaryPCs[t] == pc+1:
			// The golden run fell through; skipping reproduces that.
			noEffect = true
		case skipPrunable(ins.Op):
			dead := true
			if w := ins.WritesReg(); w > int(isa.RegZero) {
				if dead, err = deadReg(t, w); err != nil {
					return nil, err
				}
			}
			if dead && isa.Classify(ins.Op) == isa.ClassStore {
				ws := writesAt[t]
				if len(ws) == 0 {
					// No RAM write recorded: the store hit an MMIO port;
					// skipping it changes the observable output.
					dead = false
				}
				for _, a := range ws {
					for i := uint32(0); dead && i < uint32(a.Size); i++ {
						if dead, err = deadMem(t, a.Addr+i); err != nil {
							return nil, err
						}
					}
				}
			}
			noEffect = dead
		}
		if noEffect {
			fs.KnownNoEffect++
		} else {
			fs.Classes = append(fs.Classes, Class{Bit: 0, DefCycle: t - 1, UseCycle: t})
		}
	}
	if err := fs.checkPartition(); err != nil {
		return nil, err
	}
	return fs, nil
}

// BuildPC partitions the PC-corruption fault space: coordinates are
// (slot t, bit b) with b ∈ [0, 32), flipping bit b of the boundary PC at
// slot t. codeLen is the traced program's length in instructions.
func BuildPC(g *trace.Golden, codeLen uint32) (*FaultSpace, error) {
	if err := needsControlTrace(g); err != nil {
		return nil, err
	}
	fs := &FaultSpace{
		Kind:   SpacePC,
		Cycles: g.Cycles,
		Bits:   machine.PCBits,
	}
	for b := uint64(0); b < machine.PCBits; b++ {
		runStart := uint64(0) // first slot of the current bad-PC run, 0 = none
		flush := func(end uint64) {
			if runStart != 0 {
				fs.Classes = append(fs.Classes, Class{Bit: b, DefCycle: runStart - 1, UseCycle: end})
				runStart = 0
			}
		}
		for t := uint64(1); t <= g.Cycles; t++ {
			target := g.BoundaryPCs[t-1] ^ uint32(1)<<b
			if !g.IRQEntries[t-1] && target >= codeLen {
				// Deterministic ExcBadPC on the next fetch: extend the run.
				if runStart == 0 {
					runStart = t
				}
				continue
			}
			flush(t - 1)
			// An in-program flip (or a flip swallowed into the handler's
			// saved return address) must actually be executed.
			fs.Classes = append(fs.Classes, Class{Bit: b, DefCycle: t - 1, UseCycle: t})
		}
		flush(g.Cycles)
	}
	sort.Slice(fs.Classes, func(i, j int) bool {
		a, b := fs.Classes[i], fs.Classes[j]
		if a.UseCycle != b.UseCycle {
			return a.UseCycle < b.UseCycle
		}
		return a.Bit < b.Bit
	})
	if err := fs.checkPartition(); err != nil {
		return nil, err
	}
	return fs, nil
}
