package harden

import (
	"fmt"

	"faultspace/internal/asm"
	"faultspace/internal/isa"
)

// Dilution is the paper's "Dilution Fault Tolerance" (DFT, §IV-B): a
// deliberately ineffective program transformation that prepends NOP
// instructions. It performs no protective work whatsoever, yet inflates
// the fault-coverage metric by growing the fault-space size N while the
// absolute failure count F stays constant — the "fault-space dilution
// delusion".
type Dilution struct {
	// NOPs is the number of NOP instructions to prepend.
	NOPs int
}

// Name implements Variant.
func (d Dilution) Name() string { return fmt.Sprintf("dft(%d nops)", d.NOPs) }

// Apply implements Variant.
func (d Dilution) Apply(stmts []asm.Stmt) ([]asm.Stmt, error) {
	if d.NOPs < 0 {
		return nil, fmt.Errorf("harden: negative NOP count %d", d.NOPs)
	}
	return prependCode(stmts, d.NOPs, func(pos asm.Pos, _ int) asm.Stmt { return instr(pos, "nop") }), nil
}

// DilutionLoads is DFT′ (§IV-B): instead of NOPs it prepends dummy load
// instructions that read the given RAM addresses round-robin and discard
// the values. The newly diluted fault-space coordinates are thereby
// "activated" faults, defeating the activated-faults-only counting rule of
// Barbosa et al. that would see through plain NOP dilution.
type DilutionLoads struct {
	// Loads is the number of dummy byte loads to prepend.
	Loads int
	// Addrs are the RAM byte addresses to read, used round-robin.
	Addrs []int64
}

// Name implements Variant.
func (d DilutionLoads) Name() string { return fmt.Sprintf("dft'(%d loads)", d.Loads) }

// Apply implements Variant.
func (d DilutionLoads) Apply(stmts []asm.Stmt) ([]asm.Stmt, error) {
	if d.Loads < 0 {
		return nil, fmt.Errorf("harden: negative load count %d", d.Loads)
	}
	if d.Loads > 0 && len(d.Addrs) == 0 {
		return nil, fmt.Errorf("harden: DilutionLoads needs at least one address")
	}
	return prependCode(stmts, d.Loads, func(pos asm.Pos, i int) asm.Stmt {
		addr := d.Addrs[i%len(d.Addrs)]
		return instr(pos, "lb", regOp(s1), memOp(isa.RegZero, asm.NumExpr{Value: addr}))
	}), nil
}
