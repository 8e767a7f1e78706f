package harden

import (
	"fmt"

	"faultspace/internal/asm"
	"faultspace/internal/isa"
	"faultspace/internal/machine"
)

// TMR expands protected accesses into triple modular redundancy: every
// protected word lives three times —
//
//	copy a at addr
//	copy b at addr + Copy2Offset
//	copy c at addr + Copy3Offset
//
// A protected store writes all three copies. A protected load compares
// them; on any disagreement it computes the bitwise majority
// maj = c ^ ((a^c) & (b^c)), rewrites all three copies and signals
// "detected & corrected". Bitwise voting corrects not only any single-bit
// fault but every fault *pair* except flips of the same bit position in
// two different copies — substantially stronger than SumDMR's
// complement-checksum vote (compare `favreport multifault`).
//
// TMR and SumDMR share the same data layout (three word regions), so any
// benchmark Spec can build either variant from one source. Registers
// isa.RegScratch1/2 are clobbered by the expansions.
type TMR struct {
	// Copy2Offset and Copy3Offset are the byte distances from a protected
	// word to its second and third copy: distinct, word-aligned, non-zero.
	Copy2Offset int64
	Copy3Offset int64

	// RegionBase/RegionWords describe the protected region verified by
	// the pchk pseudo instruction (see SumDMR).
	RegionBase  int64
	RegionWords int64
}

// Name implements Variant.
func (TMR) Name() string { return "tmr" }

// Apply implements Variant.
func (v TMR) Apply(stmts []asm.Stmt) ([]asm.Stmt, error) {
	if err := checkOffsets("TMR", v.Copy2Offset, v.Copy3Offset); err != nil {
		return nil, err
	}
	return expandPseudos(stmts, v.expand)
}

func (v TMR) expand(st asm.Stmt, seq int) ([]asm.Stmt, error) {
	pos := st.Pos

	if st.Name == asm.PseudoPCheck {
		// Compare the three copies of every region word; vote and repair
		// on a disagreement.
		lbl := func(suffix string) string { return fmt.Sprintf("__tchk%d_%s", seq, suffix) }
		return regionCheck(pos, "TMR", v.RegionBase, v.RegionWords, v.Copy2Offset, lbl, []asm.Stmt{
			instr(pos, "lw", regOp(s2), memOp(1, asm.NumExpr{Value: v.Copy3Offset})),
			instr(pos, "bne", regOp(3), regOp(s1), symOp(lbl("fix"))),
			instr(pos, "bne", regOp(3), regOp(s2), symOp(lbl("fix"))),
		}, append([]asm.Stmt{labelStmt(pos, lbl("fix"))},
			v.majorityAndRepair(pos, 3, 1, asm.NumExpr{})...))
	}
	val, mem, err := access(st)
	if err != nil {
		return nil, err
	}
	base, off := mem.Reg, mem.Expr

	if st.Name == asm.PseudoPStore {
		return []asm.Stmt{
			instr(pos, "sw", val, memOp(base, off)),
			instr(pos, "sw", val, memOp(base, addOff(off, v.Copy2Offset))),
			instr(pos, "sw", val, memOp(base, addOff(off, v.Copy3Offset))),
		}, nil
	}

	lblFix := fmt.Sprintf("__tmr%d_fix", seq)
	lblOK := fmt.Sprintf("__tmr%d_ok", seq)
	return append(
		[]asm.Stmt{
			instr(pos, "lw", val, memOp(base, off)),
			instr(pos, "lw", regOp(s1), memOp(base, addOff(off, v.Copy2Offset))),
			instr(pos, "lw", regOp(s2), memOp(base, addOff(off, v.Copy3Offset))),
			instr(pos, "bne", val, regOp(s1), symOp(lblFix)),
			instr(pos, "beq", val, regOp(s2), symOp(lblOK)),
			labelStmt(pos, lblFix),
		},
		append(v.majorityAndRepair(pos, val.Reg, base, off),
			labelStmt(pos, lblOK))...,
	), nil
}

// majorityAndRepair emits the bitwise vote maj = c ^ ((a^c) & (b^c)) over
// a = rd, b = s1, c = s2, followed by rewriting all three copies and the
// correction signal. rd ends up holding the majority value.
func (v TMR) majorityAndRepair(pos asm.Pos, rd, base uint8, off asm.Expr) []asm.Stmt {
	return []asm.Stmt{
		instr(pos, "xor", regOp(rd), regOp(rd), regOp(s2)),
		instr(pos, "xor", regOp(s1), regOp(s1), regOp(s2)),
		instr(pos, "and", regOp(rd), regOp(rd), regOp(s1)),
		instr(pos, "xor", regOp(rd), regOp(rd), regOp(s2)),
		instr(pos, "sw", regOp(rd), memOp(base, off)),
		instr(pos, "sw", regOp(rd), memOp(base, addOff(off, v.Copy2Offset))),
		instr(pos, "sw", regOp(rd), memOp(base, addOff(off, v.Copy3Offset))),
		instr(pos, "swi", numOp(1), memOp(isa.RegZero, asm.NumExpr{Value: int64(machine.PortCorrect)})),
	}
}
