// Package harden implements software-based hardware fault-tolerance
// transformations applied to fav32 assembly at the statement level.
//
// Two kinds of transformations exist:
//
//   - Real mechanisms: SumDMR expands the pld/pst protected-access pseudo
//     instructions into duplication-plus-checksum sequences with
//     detect-and-correct semantics, modelled after the "SUM+DMR" mechanism
//     the paper's data set uses ([8] in the paper), and TMR into
//     triplication with a bitwise-majority vote. Baseline expands the
//     same pseudos into plain loads/stores, so baseline and hardened
//     variants come from identical sources. All three run one pass,
//     expandPseudos; a mechanism is only its pld, pst and pchk statement
//     lists.
//
//   - Benchmarking cheats: Dilution ("DFT") prepends NOPs and DilutionLoads
//     ("DFT′") prepends dummy loads — the deliberately ineffective
//     transformations of the paper's §IV Gedankenexperiment, which inflate
//     the fault-coverage metric without reducing failures.
//
// All transformations consume and produce []asm.Stmt, between asm.Parse and
// asm.AssembleStmts.
package harden

import (
	"fmt"

	"faultspace/internal/asm"
	"faultspace/internal/isa"
)

// Variant is a program transformation.
type Variant interface {
	// Name identifies the variant in reports (e.g. "baseline", "sum+dmr").
	Name() string
	// Apply transforms the parsed program. Implementations must not mutate
	// the input slice.
	Apply(stmts []asm.Stmt) ([]asm.Stmt, error)
}

// Chain composes variants left to right.
func Chain(vs ...Variant) Variant { return chain(vs) }

type chain []Variant

func (c chain) Name() string {
	name := ""
	for i, v := range c {
		if i > 0 {
			name += "+"
		}
		name += v.Name()
	}
	return name
}

func (c chain) Apply(stmts []asm.Stmt) ([]asm.Stmt, error) {
	var err error
	for _, v := range c {
		stmts, err = v.Apply(stmts)
		if err != nil {
			return nil, fmt.Errorf("harden: %s: %w", v.Name(), err)
		}
	}
	return stmts, nil
}

// Baseline expands protected accesses into plain word loads and stores.
type Baseline struct{}

// Name implements Variant.
func (Baseline) Name() string { return "baseline" }

// Apply implements Variant.
func (Baseline) Apply(stmts []asm.Stmt) ([]asm.Stmt, error) {
	return expandPseudos(stmts, func(st asm.Stmt, _ int) ([]asm.Stmt, error) {
		switch st.Name {
		case asm.PseudoPLoad:
			st.Name = "lw"
		case asm.PseudoPStore:
			st.Name = "sw"
		default:
			// pchk: the baseline has no redundancy to verify, so the
			// check disappears entirely (zero cycles); only its label
			// survives.
			return nil, nil
		}
		st.Label = ""
		return []asm.Stmt{st}, nil
	})
}

// s1 and s2 are the hardening scratch registers. The expansions clobber
// them, so programs using pld/pst must treat them as reserved.
const (
	s1 = isa.RegScratch1
	s2 = isa.RegScratch2
)

// expandPseudos is the one hardening pass every variant runs: it copies
// stmts, replacing each pseudo instruction by expand's statements for it.
// seq numbers the pseudo instructions from 0, so a mechanism can make its
// labels unique per site. A label attached to a pseudo instruction names
// the first expanded statement.
func expandPseudos(stmts []asm.Stmt, expand func(st asm.Stmt, seq int) ([]asm.Stmt, error)) ([]asm.Stmt, error) {
	out := make([]asm.Stmt, 0, len(stmts)+16)
	seq := 0
	for _, st := range stmts {
		if !st.IsPseudo() {
			out = append(out, st)
			continue
		}
		expanded, err := expand(st, seq)
		if err != nil {
			return nil, err
		}
		seq++
		if st.Label != "" {
			out = append(out, labelStmt(st.Pos, st.Label))
		}
		out = append(out, expanded...)
	}
	return out, nil
}

// checkOffsets validates a mechanism's two copy offsets: the byte
// distances from a protected word to its second and third word.
func checkOffsets(mech string, a, b int64) error {
	switch {
	case a == 0 || b == 0:
		return fmt.Errorf("harden: %s offsets must be non-zero", mech)
	case a == b:
		return fmt.Errorf("harden: %s offsets must differ", mech)
	case a%4 != 0 || b%4 != 0:
		return fmt.Errorf("harden: %s offsets must be word-aligned", mech)
	}
	return nil
}

// access returns a pld's or pst's value register operand (rd or rt) and
// its memory operand. The expansions clobber the scratch registers, so
// neither operand may name one; and a pld's destination must differ from
// its base, so the repair stores still have a valid base address after
// the destination is written.
func access(st asm.Stmt) (val, mem asm.Operand, err error) {
	val, mem = st.Ops[0], st.Ops[1]
	line := st.Pos.Line
	switch {
	case mem.Reg == s1 || mem.Reg == s2:
		err = fmt.Errorf("harden: line %d: %s base register r%d is reserved for hardening", line, st.Name, mem.Reg)
	case val.Reg == s1 || val.Reg == s2:
		err = fmt.Errorf("harden: line %d: %s operand register r%d is reserved for hardening", line, st.Name, val.Reg)
	case st.Name == asm.PseudoPLoad && val.Reg == mem.Reg:
		err = fmt.Errorf("harden: line %d: pld destination r%d must differ from base register", line, val.Reg)
	}
	return val, mem, err
}

// regionCheck emits the pchk walk over the protected region, words words
// from address base: r1 steps through the primary words and r2 holds the
// end address. Each step loads the primary into r3 and its copy second
// bytes on into s1; verify follows those two loads and branches into fix
// on a disagreement, and fix votes, repairs and signals before the walk
// goes on with the next word. lbl names the walk's labels (loop, next,
// done) and those verify and fix branch to. Clobbers r1-r3 and the
// hardening scratch registers — pchk may only be placed where those are
// free (kernel entry points).
func regionCheck(pos asm.Pos, mech string, base, words, second int64, lbl func(string) string, verify, fix []asm.Stmt) ([]asm.Stmt, error) {
	if words <= 0 {
		return nil, fmt.Errorf("harden: line %d: pchk used but %s region is not configured", pos.Line, mech)
	}
	stmts := []asm.Stmt{
		instr(pos, "li", regOp(1), numOp(base)),
		instr(pos, "li", regOp(2), numOp(base+words*4)),
		labelStmt(pos, lbl("loop")),
		instr(pos, "lw", regOp(3), memOp(1, asm.NumExpr{})),
		instr(pos, "lw", regOp(s1), memOp(1, asm.NumExpr{Value: second})),
	}
	stmts = append(stmts, verify...)
	stmts = append(stmts,
		labelStmt(pos, lbl("next")),
		instr(pos, "addi", regOp(1), regOp(1), numOp(4)),
		instr(pos, "blt", regOp(1), regOp(2), symOp(lbl("loop"))),
		instr(pos, "jmp", symOp(lbl("done"))),
	)
	stmts = append(stmts, fix...)
	return append(stmts,
		instr(pos, "jmp", symOp(lbl("next"))),
		labelStmt(pos, lbl("done")),
	), nil
}

// instr builds an instruction statement at pos.
func instr(pos asm.Pos, name string, ops ...asm.Operand) asm.Stmt {
	return asm.Stmt{Pos: pos, Kind: asm.StmtInstr, Name: name, Ops: ops}
}

func regOp(r uint8) asm.Operand {
	return asm.Operand{Kind: asm.OperandReg, Reg: r}
}

func exprOp(e asm.Expr) asm.Operand {
	return asm.Operand{Kind: asm.OperandExpr, Expr: e}
}

func symOp(name string) asm.Operand {
	return exprOp(asm.SymExpr{Name: name})
}

func numOp(v int64) asm.Operand {
	return exprOp(asm.NumExpr{Value: v})
}

func memOp(base uint8, off asm.Expr) asm.Operand {
	return asm.Operand{Kind: asm.OperandMem, Reg: base, Expr: off}
}

func labelStmt(pos asm.Pos, name string) asm.Stmt {
	return asm.Stmt{Pos: pos, Kind: asm.StmtEmpty, Label: name}
}

// prependCode inserts n statements, gen(pos, i) for i = 0..n-1, before
// the program's first instruction, pos being that instruction's position
// (at the end, with a zero position, when the program has no code).
func prependCode(stmts []asm.Stmt, n int, gen func(pos asm.Pos, i int) asm.Stmt) []asm.Stmt {
	at, pos := len(stmts), asm.Pos{}
	for i, st := range stmts {
		if st.Kind == asm.StmtInstr {
			at, pos = i, st.Pos
			break
		}
	}
	out := make([]asm.Stmt, 0, len(stmts)+n)
	out = append(out, stmts[:at]...)
	for i := 0; i < n; i++ {
		out = append(out, gen(pos, i))
	}
	return append(out, stmts[at:]...)
}

// addOff shifts a memory-offset expression by delta bytes.
func addOff(e asm.Expr, delta int64) asm.Expr {
	if delta == 0 {
		return e
	}
	if n, ok := e.(asm.NumExpr); ok {
		return asm.NumExpr{Value: n.Value + delta}
	}
	return asm.BinExpr{Op: "+", X: e, Y: asm.NumExpr{Value: delta}}
}
