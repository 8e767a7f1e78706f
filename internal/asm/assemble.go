package asm

import (
	"errors"
	"fmt"

	"faultspace/internal/isa"
)

// DefaultRAMSize is used when a program has no .ram directive.
const DefaultRAMSize = 256

// Program is the output of the assembler: a fav32 ROM image plus the
// initial RAM contents and the resolved symbol table.
type Program struct {
	Name    string
	Code    []isa.Instruction
	Image   []byte           // initial RAM contents (data section)
	RAMSize int              // bytes of RAM the program wants (.ram)
	Symbols map[string]int64 // labels and .equ constants
	Lines   []int            // source line per instruction, for diagnostics

	// TimerPeriod/TimerVector configure the deterministic timer interrupt
	// (.timer PERIOD, handler). Zero period means no timer.
	TimerPeriod uint64
	TimerVector uint32
}

// Assemble parses and assembles source in one step. Programs containing
// pld/pst pseudo instructions must instead go through Parse, a harden
// transformation, and AssembleStmts.
func Assemble(name, src string) (*Program, error) {
	stmts, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return AssembleStmts(name, stmts)
}

// AssembleStmts runs the two-pass assembler over parsed (and, if needed,
// hardening-expanded) statements.
func AssembleStmts(name string, stmts []Stmt) (*Program, error) {
	a := &assembler{
		prog: &Program{
			Name:    name,
			RAMSize: DefaultRAMSize,
			Symbols: make(map[string]int64),
		},
	}
	if err := a.passOne(stmts); err != nil {
		return nil, err
	}
	if err := a.passTwo(stmts); err != nil {
		return nil, err
	}
	if len(a.prog.Code) == 0 {
		return nil, errors.New("asm: program has no instructions")
	}
	return a.prog, nil
}

type section uint8

const (
	secText section = iota + 1
	secData
)

type assembler struct {
	prog *Program
	sec  section
	ic   int // instruction counter (pass 1)
	dc   int // data location counter
	dMax int // high-water mark of the data image
}

// passOne assigns values to all labels and .equ symbols and determines the
// data image size.
func (a *assembler) passOne(stmts []Stmt) error {
	a.sec = secText
	a.ic, a.dc, a.dMax = 0, 0, 0
	syms := a.prog.Symbols

	define := func(pos Pos, name string, v int64) error {
		if _, dup := syms[name]; dup {
			return errf(pos, "symbol %q redefined", name)
		}
		syms[name] = v
		return nil
	}

	var errs []error
	for _, st := range stmts {
		if st.Label != "" {
			v := int64(a.ic)
			if a.sec == secData {
				v = int64(a.dc)
			}
			if err := define(st.Pos, st.Label, v); err != nil {
				errs = append(errs, err)
				continue
			}
		}
		switch st.Kind {
		case StmtEmpty:
			// label only
		case StmtEqu:
			v, err := st.Exprs[0].eval(MapSymbols(syms))
			if err != nil {
				errs = append(errs, errf(st.Pos, ".equ %s: %v", st.EquName, err))
				continue
			}
			if err := define(st.Pos, st.EquName, v); err != nil {
				errs = append(errs, err)
			}
		case StmtInstr:
			if st.IsPseudo() {
				errs = append(errs, errf(st.Pos,
					"%s pseudo instruction not expanded; apply a hardening variant first", st.Name))
				continue
			}
			a.ic++
		case StmtDir:
			if err := a.sizeDirective(st); err != nil {
				errs = append(errs, err)
			}
		}
	}
	if len(errs) > 0 {
		return errors.Join(errs...)
	}
	return nil
}

// sizeDirective advances the location counters for a directive during pass
// one. Size-affecting arguments (.space, .org, .align, .ram) must be
// evaluable from symbols defined so far.
func (a *assembler) sizeDirective(st Stmt) error {
	syms := MapSymbols(a.prog.Symbols)
	switch st.Name {
	case ".text":
		a.sec = secText
	case ".data":
		a.sec = secData
	case ".word":
		if err := a.wantData(st); err != nil {
			return err
		}
		if a.dc%4 != 0 {
			return errf(st.Pos, ".word at unaligned address %d", a.dc)
		}
		a.advance(len(st.Exprs) * 4)
	case ".byte":
		if err := a.wantData(st); err != nil {
			return err
		}
		a.advance(len(st.Exprs))
	case ".space":
		if err := a.wantData(st); err != nil {
			return err
		}
		n, err := a.evalSize(st, syms)
		if err != nil {
			return err
		}
		a.advance(int(n))
	case ".align":
		if err := a.wantData(st); err != nil {
			return err
		}
		n, err := a.evalSize(st, syms)
		if err != nil {
			return err
		}
		if n <= 0 || (n&(n-1)) != 0 {
			return errf(st.Pos, ".align %d: not a positive power of two", n)
		}
		for a.dc%int(n) != 0 {
			a.advance(1)
		}
	case ".org":
		if err := a.wantData(st); err != nil {
			return err
		}
		n, err := a.evalSize(st, syms)
		if err != nil {
			return err
		}
		a.dc = int(n)
		if a.dc > a.dMax {
			a.dMax = a.dc
		}
	case ".ram":
		n, err := a.evalSize(st, syms)
		if err != nil {
			return err
		}
		if n <= 0 {
			return errf(st.Pos, ".ram %d: must be positive", n)
		}
		a.prog.RAMSize = int(n)
	case ".timer":
		// Arguments are evaluated in pass two, when the handler label is
		// known; here only the arity is checked.
		if len(st.Exprs) != 2 {
			return errf(st.Pos, ".timer takes PERIOD, HANDLER")
		}
	default:
		return errf(st.Pos, "unknown directive %q", st.Name)
	}
	return nil
}

func (a *assembler) wantData(st Stmt) error {
	if a.sec != secData {
		return errf(st.Pos, "%s outside .data section", st.Name)
	}
	return nil
}

func (a *assembler) evalSize(st Stmt, syms SymbolTable) (int64, error) {
	if len(st.Exprs) != 1 {
		return 0, errf(st.Pos, "%s takes exactly one argument", st.Name)
	}
	n, err := st.Exprs[0].eval(syms)
	if err != nil {
		return 0, errf(st.Pos, "%s: %v", st.Name, err)
	}
	if n < 0 || n > 1<<20 {
		return 0, errf(st.Pos, "%s: value %d out of range", st.Name, n)
	}
	return n, nil
}

func (a *assembler) advance(n int) {
	a.dc += n
	if a.dc > a.dMax {
		a.dMax = a.dc
	}
}

// passTwo emits instructions and the data image with the full symbol table.
func (a *assembler) passTwo(stmts []Stmt) error {
	p := a.prog
	syms := MapSymbols(p.Symbols)
	if a.dMax > p.RAMSize {
		return fmt.Errorf("asm: data section (%d bytes) exceeds RAM size %d", a.dMax, p.RAMSize)
	}
	p.Image = make([]byte, a.dMax)
	p.Code = make([]isa.Instruction, 0, a.ic)
	p.Lines = make([]int, 0, a.ic)

	a.sec = secText
	a.dc = 0

	var errs []error
	for _, st := range stmts {
		switch st.Kind {
		case StmtInstr:
			ins, err := encodeStmt(st, syms, a.ic)
			if err != nil {
				errs = append(errs, err)
				continue
			}
			p.Code = append(p.Code, ins)
			p.Lines = append(p.Lines, st.Pos.Line)
		case StmtDir:
			if err := a.emitDirective(st, syms); err != nil {
				errs = append(errs, err)
			}
		}
	}
	if len(errs) > 0 {
		return errors.Join(errs...)
	}
	return nil
}

func (a *assembler) emitDirective(st Stmt, syms SymbolTable) error {
	switch st.Name {
	case ".text":
		a.sec = secText
	case ".data":
		a.sec = secData
	case ".word":
		for _, e := range st.Exprs {
			v, err := e.eval(syms)
			if err != nil {
				return errf(st.Pos, ".word: %v", err)
			}
			if v < -1<<31 || v > 1<<32-1 {
				return errf(st.Pos, ".word: value %d does not fit in 32 bits", v)
			}
			u := uint32(v)
			a.prog.Image[a.dc] = byte(u)
			a.prog.Image[a.dc+1] = byte(u >> 8)
			a.prog.Image[a.dc+2] = byte(u >> 16)
			a.prog.Image[a.dc+3] = byte(u >> 24)
			a.dc += 4
		}
	case ".byte":
		for _, e := range st.Exprs {
			v, err := e.eval(syms)
			if err != nil {
				return errf(st.Pos, ".byte: %v", err)
			}
			if v < -128 || v > 255 {
				return errf(st.Pos, ".byte: value %d does not fit in 8 bits", v)
			}
			a.prog.Image[a.dc] = byte(v)
			a.dc++
		}
	case ".space":
		n, _ := a.evalSize(st, syms)
		a.dc += int(n)
	case ".align":
		n, _ := a.evalSize(st, syms)
		for a.dc%int(n) != 0 {
			a.dc++
		}
	case ".org":
		n, _ := a.evalSize(st, syms)
		a.dc = int(n)
	case ".ram":
		// handled in pass one
	case ".timer":
		period, err := st.Exprs[0].eval(syms)
		if err != nil {
			return errf(st.Pos, ".timer: %v", err)
		}
		vector, err := st.Exprs[1].eval(syms)
		if err != nil {
			return errf(st.Pos, ".timer: %v", err)
		}
		if period <= 0 {
			return errf(st.Pos, ".timer: period %d must be positive", period)
		}
		if vector < 0 || vector >= int64(a.ic) {
			return errf(st.Pos, ".timer: handler %d outside program [0, %d)", vector, a.ic)
		}
		a.prog.TimerPeriod = uint64(period)
		a.prog.TimerVector = uint32(vector)
	}
	return nil
}

// encodeStmt lowers one instruction statement to an isa.Instruction.
// nInstr is the total instruction count, used to range-check branch targets.
func encodeStmt(st Stmt, syms SymbolTable, nInstr int) (isa.Instruction, error) {
	op, ok := isa.OpByName(st.Name)
	if !ok {
		return isa.Instruction{}, errf(st.Pos, "unknown mnemonic %q", st.Name)
	}
	ins := isa.Instruction{Op: op}

	evalImm := func(e Expr) (int32, error) {
		v, err := e.eval(syms)
		if err != nil {
			return 0, errf(st.Pos, "%s: %v", st.Name, err)
		}
		if v < -1<<31 || v > 1<<32-1 {
			return 0, errf(st.Pos, "%s: immediate %d does not fit in 32 bits", st.Name, v)
		}
		return int32(uint32(v)), nil
	}
	evalTarget := func(e Expr) (int32, error) {
		v, err := e.eval(syms)
		if err != nil {
			return 0, errf(st.Pos, "%s: %v", st.Name, err)
		}
		if v < 0 || v >= int64(nInstr) {
			return 0, errf(st.Pos, "%s: target %d outside program [0, %d)", st.Name, v, nInstr)
		}
		return int32(v), nil
	}

	var err error
	switch formats[st.Name] {
	case fmtNone:
	case fmtLI:
		ins.Rd = st.Ops[0].Reg
		ins.Imm, err = evalImm(st.Ops[1].Expr)
	case fmtMov:
		ins.Rd, ins.Rs = st.Ops[0].Reg, st.Ops[1].Reg
	case fmtR3:
		ins.Rd, ins.Rs, ins.Rt = st.Ops[0].Reg, st.Ops[1].Reg, st.Ops[2].Reg
	case fmtRI:
		ins.Rd, ins.Rs = st.Ops[0].Reg, st.Ops[1].Reg
		ins.Imm, err = evalImm(st.Ops[2].Expr)
	case fmtLoad:
		ins.Rd = st.Ops[0].Reg
		ins.Rs = st.Ops[1].Reg
		ins.Imm, err = evalImm(st.Ops[1].Expr)
	case fmtStore:
		ins.Rt = st.Ops[0].Reg
		ins.Rs = st.Ops[1].Reg
		ins.Imm, err = evalImm(st.Ops[1].Expr)
	case fmtStoreI:
		var v int32
		v, err = evalImm(st.Ops[0].Expr)
		if err == nil {
			if v < -(1<<11) || v > 1<<11-1 {
				err = errf(st.Pos, "%s: immediate %d does not fit in 12 bits", st.Name, v)
			} else {
				ins.Imm2 = v
			}
		}
		if err == nil {
			ins.Rs = st.Ops[1].Reg
			ins.Imm, err = evalImm(st.Ops[1].Expr)
		}
	case fmtBranch:
		ins.Rs, ins.Rt = st.Ops[0].Reg, st.Ops[1].Reg
		ins.Imm, err = evalTarget(st.Ops[2].Expr)
	case fmtJump:
		ins.Imm, err = evalTarget(st.Ops[0].Expr)
	case fmtJr:
		ins.Rs = st.Ops[0].Reg
	case fmtRd:
		ins.Rd = st.Ops[0].Reg
	case fmtJalr:
		ins.Rd, ins.Rs = st.Ops[0].Reg, st.Ops[1].Reg
	default:
		err = errf(st.Pos, "internal: no encoder for %q", st.Name)
	}
	if err != nil {
		return isa.Instruction{}, err
	}
	if err := ins.Validate(); err != nil {
		return isa.Instruction{}, errf(st.Pos, "%v", err)
	}
	return ins, nil
}
