package machine

import "faultspace/internal/isa"

// This file implements the pre-decoded execution engine: the program is
// lowered once into a dense, dispatch-ready instruction stream and Run
// executes it in a tight loop with the program counter and cycle counter
// held in locals, instead of paying the full per-Step overhead (status
// check, timer check, hook checks, operand masking) on every cycle.
//
// The fast path is an implementation detail, never a semantic one: it is
// only taken when no hooks are installed, it replicates Step's effects
// bit for bit, and every shortcut is pinned by the differential tests
// (TestPredecodeEquivalenceRandomPrograms, TestPredecodeToggleAndClone)
// and the strategy-equivalence matrix (DESIGN.md invariant 11).
//
// Machines fetch from the fault-immune ROM (the paper's machine model,
// §II-C), so the lowered stream is built once and can never go stale —
// faults only hit RAM and registers.

// preIns is one lowered instruction: operands pre-masked and immediates
// pre-converted so the dispatch loop does no per-cycle bit fiddling.
// Register indices are masked to the architectural 4 bits at lowering
// time, which also lets the compiler elide bounds checks on the
// register-file accesses in runChunk.
type preIns struct {
	op         isa.Op
	rd, rs, rt uint8
	imm        int32  // signed immediate (Slti)
	immU       uint32 // unsigned immediate: address offset, branch target, shift count
	imm2U      uint32 // store-immediate value (Swi/Sbi)
}

// lower converts a decoded instruction to its dispatch-ready form.
func lower(ins isa.Instruction) preIns {
	p := preIns{
		op:    ins.Op,
		rd:    ins.Rd & 15,
		rs:    ins.Rs & 15,
		rt:    ins.Rt & 15,
		imm:   ins.Imm,
		immU:  uint32(ins.Imm),
		imm2U: uint32(ins.Imm2),
	}
	switch ins.Op {
	case isa.OpShli, isa.OpShri:
		// The shift count is static; mask it once here instead of per cycle.
		p.immU &= 31
	}
	return p
}

// SetPredecode enables or disables the pre-decoded fast path. Enabling
// is idempotent; disabling drops the lowered stream so Run falls back to
// the plain Step loop. The setting never changes observable machine
// behavior — only how fast Run gets there.
func (m *Machine) SetPredecode(on bool) {
	if !on {
		m.pre = nil
		return
	}
	if m.pre != nil {
		return
	}
	m.pre = make([]preIns, len(m.rom))
	for i, ins := range m.rom {
		m.pre[i] = lower(ins)
	}
}

// PredecodeEnabled reports whether the pre-decoded fast path is active.
func (m *Machine) PredecodeEnabled() bool { return m.pre != nil }

// runPre is Run over the pre-decoded stream. It executes in chunks
// bounded by the next timer event, so the chunk loop itself needs no
// per-cycle timer check; interrupt delivery happens here at chunk
// boundaries, mirroring Step's instruction-boundary semantics exactly
// (the chunk limit never extends past a pending fire).
func (m *Machine) runPre(maxCycles uint64) Status {
	for m.status == StatusRunning && m.cycles < maxCycles {
		limit := maxCycles
		if m.cfg.TimerPeriod > 0 && !m.inIRQ {
			if m.cycles >= m.fireAt {
				m.savedPC = m.pc
				m.pc = m.cfg.TimerVector
				m.inIRQ = true
			} else if m.fireAt < limit {
				limit = m.fireAt
			}
		}
		m.runChunk(limit)
	}
	return m.status
}

// runChunk executes pre-decoded instructions until the retired-cycle
// count reaches limit, the machine leaves StatusRunning, or an OpSret
// re-arms the timer (which invalidates the caller's chunk limit). The
// caller guarantees no timer interrupt becomes deliverable strictly
// inside (m.cycles, limit) and that no hooks are installed.
func (m *Machine) runChunk(limit uint64) {
	var fexc Exception
	code := m.pre
	ram := m.ram
	regs := &m.regs
	pc := m.pc
	cycles := m.cycles
	codeLen := uint32(len(code))
	for cycles < limit {
		if pc >= codeLen {
			m.pc, m.cycles = pc, cycles
			m.raise(ExcBadPC)
			return
		}
		ins := &code[pc]
		cycles++ // the executing instruction's retire count (== Step's `cycle`)
		nextPC := pc + 1

		switch ins.op {
		case isa.OpNop:
			// nothing
		case isa.OpHalt:
			m.status = StatusHalted
			m.pc, m.cycles = nextPC, cycles
			return
		case isa.OpLi:
			if ins.rd != 0 {
				regs[ins.rd&15] = ins.immU
			}
		case isa.OpMov:
			if ins.rd != 0 {
				regs[ins.rd&15] = regs[ins.rs&15]
			}

		case isa.OpAdd:
			if ins.rd != 0 {
				regs[ins.rd&15] = regs[ins.rs&15] + regs[ins.rt&15]
			}
		case isa.OpSub:
			if ins.rd != 0 {
				regs[ins.rd&15] = regs[ins.rs&15] - regs[ins.rt&15]
			}
		case isa.OpAnd:
			if ins.rd != 0 {
				regs[ins.rd&15] = regs[ins.rs&15] & regs[ins.rt&15]
			}
		case isa.OpOr:
			if ins.rd != 0 {
				regs[ins.rd&15] = regs[ins.rs&15] | regs[ins.rt&15]
			}
		case isa.OpXor:
			if ins.rd != 0 {
				regs[ins.rd&15] = regs[ins.rs&15] ^ regs[ins.rt&15]
			}
		case isa.OpShl:
			if ins.rd != 0 {
				regs[ins.rd&15] = regs[ins.rs&15] << (regs[ins.rt&15] & 31)
			}
		case isa.OpShr:
			if ins.rd != 0 {
				regs[ins.rd&15] = regs[ins.rs&15] >> (regs[ins.rt&15] & 31)
			}
		case isa.OpSar:
			if ins.rd != 0 {
				regs[ins.rd&15] = uint32(int32(regs[ins.rs&15]) >> (regs[ins.rt&15] & 31))
			}
		case isa.OpMul:
			if ins.rd != 0 {
				regs[ins.rd&15] = regs[ins.rs&15] * regs[ins.rt&15]
			}
		case isa.OpSlt:
			if ins.rd != 0 {
				regs[ins.rd&15] = boolToReg(int32(regs[ins.rs&15]) < int32(regs[ins.rt&15]))
			}
		case isa.OpSltu:
			if ins.rd != 0 {
				regs[ins.rd&15] = boolToReg(regs[ins.rs&15] < regs[ins.rt&15])
			}

		case isa.OpAddi:
			if ins.rd != 0 {
				regs[ins.rd&15] = regs[ins.rs&15] + ins.immU
			}
		case isa.OpAndi:
			if ins.rd != 0 {
				regs[ins.rd&15] = regs[ins.rs&15] & ins.immU
			}
		case isa.OpOri:
			if ins.rd != 0 {
				regs[ins.rd&15] = regs[ins.rs&15] | ins.immU
			}
		case isa.OpXori:
			if ins.rd != 0 {
				regs[ins.rd&15] = regs[ins.rs&15] ^ ins.immU
			}
		case isa.OpShli:
			if ins.rd != 0 {
				regs[ins.rd&15] = regs[ins.rs&15] << ins.immU
			}
		case isa.OpShri:
			if ins.rd != 0 {
				regs[ins.rd&15] = regs[ins.rs&15] >> ins.immU
			}
		case isa.OpSlti:
			if ins.rd != 0 {
				regs[ins.rd&15] = boolToReg(int32(regs[ins.rs&15]) < ins.imm)
			}

		case isa.OpLw:
			addr := regs[ins.rs&15] + ins.immU
			if addr%4 != 0 {
				fexc = ExcMisaligned
				goto fault
			}
			if int(addr)+4 <= len(ram) {
				if ins.rd != 0 {
					regs[ins.rd&15] = uint32(ram[addr]) |
						uint32(ram[addr+1])<<8 |
						uint32(ram[addr+2])<<16 |
						uint32(ram[addr+3])<<24
				}
			} else if addr >= MMIOBase {
				fexc = ExcPortLoad
				goto fault
			} else {
				fexc = ExcMemRange
				goto fault
			}
		case isa.OpLb:
			addr := regs[ins.rs&15] + ins.immU
			if int(addr) < len(ram) {
				if ins.rd != 0 {
					regs[ins.rd&15] = uint32(ram[addr])
				}
			} else if addr >= MMIOBase {
				fexc = ExcPortLoad
				goto fault
			} else {
				fexc = ExcMemRange
				goto fault
			}

		case isa.OpSw, isa.OpSwi:
			addr := regs[ins.rs&15] + ins.immU
			v := ins.imm2U
			if ins.op == isa.OpSw {
				v = regs[ins.rt&15]
			}
			if addr%4 != 0 {
				fexc = ExcMisaligned
				goto fault
			}
			if int(addr)+4 <= len(ram) {
				ram[addr] = byte(v)
				ram[addr+1] = byte(v >> 8)
				ram[addr+2] = byte(v >> 16)
				ram[addr+3] = byte(v >> 24)
				m.markDirty(addr)
			} else if addr >= MMIOBase {
				if exc := m.storePort(addr, v); exc != ExcNone {
					fexc = exc
					goto fault
				}
				if m.status != StatusRunning { // PortAbort
					m.pc, m.cycles = nextPC, cycles
					return
				}
			} else {
				fexc = ExcMemRange
				goto fault
			}
		case isa.OpSb, isa.OpSbi:
			addr := regs[ins.rs&15] + ins.immU
			v := byte(ins.imm2U)
			if ins.op == isa.OpSb {
				v = byte(regs[ins.rt&15])
			}
			if int(addr) < len(ram) {
				ram[addr] = v
				m.markDirty(addr)
			} else if addr >= MMIOBase {
				if exc := m.storePort(addr&^3, uint32(v)); exc != ExcNone {
					fexc = exc
					goto fault
				}
				if m.status != StatusRunning {
					m.pc, m.cycles = nextPC, cycles
					return
				}
			} else {
				fexc = ExcMemRange
				goto fault
			}

		case isa.OpBeq:
			if regs[ins.rs&15] == regs[ins.rt&15] {
				nextPC = ins.immU
			}
		case isa.OpBne:
			if regs[ins.rs&15] != regs[ins.rt&15] {
				nextPC = ins.immU
			}
		case isa.OpBlt:
			if int32(regs[ins.rs&15]) < int32(regs[ins.rt&15]) {
				nextPC = ins.immU
			}
		case isa.OpBge:
			if int32(regs[ins.rs&15]) >= int32(regs[ins.rt&15]) {
				nextPC = ins.immU
			}
		case isa.OpBltu:
			if regs[ins.rs&15] < regs[ins.rt&15] {
				nextPC = ins.immU
			}
		case isa.OpBgeu:
			if regs[ins.rs&15] >= regs[ins.rt&15] {
				nextPC = ins.immU
			}
		case isa.OpJmp:
			nextPC = ins.immU
		case isa.OpJal:
			regs[isa.RegLR] = pc + 1
			nextPC = ins.immU
		case isa.OpJr:
			nextPC = regs[ins.rs&15]
		case isa.OpJalr:
			if ins.rd != 0 {
				regs[ins.rd&15] = pc + 1
			}
			nextPC = regs[ins.rs&15]
		case isa.OpSret:
			if !m.inIRQ {
				fexc = ExcIllegalOp
				goto fault
			}
			m.inIRQ = false
			m.fireAt = cycles + m.cfg.TimerPeriod
			// The re-armed timer invalidates the chunk limit; hand control
			// back so runPre recomputes it.
			m.pc, m.cycles = m.savedPC, cycles
			return
		case isa.OpRdspc:
			if !m.inIRQ {
				fexc = ExcIllegalOp
				goto fault
			}
			if ins.rd != 0 {
				regs[ins.rd&15] = m.savedPC
			}
		case isa.OpWrspc:
			if !m.inIRQ {
				fexc = ExcIllegalOp
				goto fault
			}
			m.savedPC = regs[ins.rs&15]

		default:
			fexc = ExcIllegalOp
			goto fault
		}

		pc = nextPC
	}
	m.pc, m.cycles = pc, cycles
	return

fault:
	// Mirrors raise(): the faulting instruction consumes its cycle
	// (already counted in cycles) and the PC stays at the faulting
	// instruction.
	m.status = StatusExcepted
	m.exc = fexc
	m.pc, m.cycles = pc, cycles
}
