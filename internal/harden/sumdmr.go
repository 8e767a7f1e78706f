package harden

import (
	"fmt"

	"faultspace/internal/asm"
	"faultspace/internal/isa"
	"faultspace/internal/machine"
)

// SumDMR expands protected accesses (pld/pst) into a duplication-plus-
// checksum scheme modelled after the "SUM+DMR" mechanism of the paper's
// data set: every protected word lives three times in memory —
//
//	primary  at  addr
//	replica  at  addr + ReplicaOffset
//	checksum at  addr + CheckOffset   (one's complement of the value)
//
// A protected store writes all three. A protected load compares primary
// and replica; on mismatch it votes using the checksum, repairs the losing
// copy, refreshes the checksum, and signals "detected & corrected" on the
// machine's correction port. Any single-bit flip in any of the three words
// between a protected store (or load) and the next protected load is
// thereby detected and corrected — the property the DMR correctness tests
// verify.
//
// Registers isa.RegScratch1/2 are clobbered by the expansions; programs
// using pld/pst must treat them as reserved.
type SumDMR struct {
	// ReplicaOffset and CheckOffset are the byte distances from a protected
	// word to its replica and checksum. The program's data layout must
	// reserve those regions; offsets must be distinct, word-aligned and
	// non-zero.
	ReplicaOffset int64
	CheckOffset   int64

	// RegionBase/RegionWords describe the contiguous protected region
	// verified by the pchk pseudo instruction: a GOP-style whole-object
	// check that walks every protected word, compares primary and replica,
	// and votes/repairs on mismatch. This is where the mechanism's large
	// runtime overhead comes from, mirroring the per-access object
	// checksumming of the paper's SUM+DMR library. Programs that never use
	// pchk may leave both zero.
	RegionBase  int64
	RegionWords int64
}

// Name implements Variant.
func (SumDMR) Name() string { return "sum+dmr" }

// Apply implements Variant.
func (v SumDMR) Apply(stmts []asm.Stmt) ([]asm.Stmt, error) {
	if err := checkOffsets("SumDMR", v.ReplicaOffset, v.CheckOffset); err != nil {
		return nil, err
	}
	return expandPseudos(stmts, v.expand)
}

func (v SumDMR) expand(st asm.Stmt, seq int) ([]asm.Stmt, error) {
	pos := st.Pos

	if st.Name == asm.PseudoPCheck {
		return v.expandCheck(pos, seq)
	}
	val, mem, err := access(st)
	if err != nil {
		return nil, err
	}
	base, off := mem.Reg, mem.Expr

	if st.Name == asm.PseudoPStore {
		// sw rt, off(rs); sw rt, off+RO(rs); xori s1, rt, -1; sw s1, off+CO(rs)
		return []asm.Stmt{
			instr(pos, "sw", val, memOp(base, off)),
			instr(pos, "sw", val, memOp(base, addOff(off, v.ReplicaOffset))),
			instr(pos, "xori", regOp(s1), regOp(val.Reg), numOp(-1)),
			instr(pos, "sw", regOp(s1), memOp(base, addOff(off, v.CheckOffset))),
		}, nil
	}

	lblOK := fmt.Sprintf("__dmr%d_ok", seq)
	lblPrim := fmt.Sprintf("__dmr%d_prim", seq)
	lblFix := fmt.Sprintf("__dmr%d_fix", seq)
	return []asm.Stmt{
		// Fast path: three cycles when copies agree.
		instr(pos, "lw", val, memOp(base, off)),
		instr(pos, "lw", regOp(s1), memOp(base, addOff(off, v.ReplicaOffset))),
		instr(pos, "beq", val, regOp(s1), symOp(lblOK)),
		// Mismatch: vote via the complement checksum.
		instr(pos, "lw", regOp(s2), memOp(base, addOff(off, v.CheckOffset))),
		instr(pos, "xori", regOp(s2), regOp(s2), numOp(-1)), // expected primary
		instr(pos, "beq", val, regOp(s2), symOp(lblPrim)),
		// Primary corrupted: adopt the replica, repair the primary.
		instr(pos, "mov", val, regOp(s1)),
		instr(pos, "sw", val, memOp(base, off)),
		instr(pos, "jmp", symOp(lblFix)),
		// Replica corrupted: repair it from the (verified) primary.
		labelStmt(pos, lblPrim),
		instr(pos, "sw", val, memOp(base, addOff(off, v.ReplicaOffset))),
		// Refresh the checksum and signal detected & corrected.
		labelStmt(pos, lblFix),
		instr(pos, "xori", regOp(s2), regOp(val.Reg), numOp(-1)),
		instr(pos, "sw", regOp(s2), memOp(base, addOff(off, v.CheckOffset))),
		instr(pos, "swi", numOp(1), memOp(isa.RegZero, asm.NumExpr{Value: int64(machine.PortCorrect)})),
		labelStmt(pos, lblOK),
	}, nil
}

// expandCheck emits the pchk region verification: walk every protected
// word, compare primary and replica (two loads and a branch on the fast
// path), and vote/repair via the checksum on mismatch.
func (v SumDMR) expandCheck(pos asm.Pos, seq int) ([]asm.Stmt, error) {
	lbl := func(suffix string) string { return fmt.Sprintf("__chk%d_%s", seq, suffix) }
	ref := func(suffix string) asm.Operand { return symOp(lbl(suffix)) }
	checkWord := memOp(1, asm.NumExpr{Value: v.CheckOffset})

	return regionCheck(pos, "SumDMR", v.RegionBase, v.RegionWords, v.ReplicaOffset, lbl, []asm.Stmt{
		instr(pos, "bne", regOp(3), regOp(s1), ref("bad")),
		// Copies agree; the SUM part verifies the checksum word as well
		// and scrubs a stale one.
		instr(pos, "lw", regOp(s2), checkWord),
		instr(pos, "xori", regOp(s2), regOp(s2), numOp(-1)),
		instr(pos, "bne", regOp(3), regOp(s2), ref("fixsum")),
	}, []asm.Stmt{
		// Copy mismatch: vote via the complement checksum, repair, signal.
		labelStmt(pos, lbl("bad")),
		instr(pos, "lw", regOp(s2), checkWord),
		instr(pos, "xori", regOp(s2), regOp(s2), numOp(-1)),
		instr(pos, "beq", regOp(3), regOp(s2), ref("fixrep")),
		instr(pos, "mov", regOp(3), regOp(s1)),
		instr(pos, "sw", regOp(3), memOp(1, asm.NumExpr{})),
		instr(pos, "jmp", ref("fixsum")),
		labelStmt(pos, lbl("fixrep")),
		instr(pos, "sw", regOp(3), memOp(1, asm.NumExpr{Value: v.ReplicaOffset})),
		labelStmt(pos, lbl("fixsum")),
		instr(pos, "xori", regOp(s2), regOp(3), numOp(-1)),
		instr(pos, "sw", regOp(s2), checkWord),
		instr(pos, "swi", numOp(1), memOp(isa.RegZero, asm.NumExpr{Value: int64(machine.PortCorrect)})),
	})
}
