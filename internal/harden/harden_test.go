package harden

import (
	"strings"
	"testing"

	"faultspace/internal/asm"
	"faultspace/internal/isa"
)

func parse(t *testing.T, src string) []asm.Stmt {
	t.Helper()
	stmts, err := asm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return stmts
}

func assemble(t *testing.T, v Variant, src string) *asm.Program {
	t.Helper()
	stmts, err := v.Apply(parse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	p, err := asm.AssembleStmts("test/"+v.Name(), stmts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

const pseudoSrc = `
        .ram    64
        pld     r1, 0(r2)
lbl:    pst     r3, 4(r2)
        pchk
        halt
`

func TestBaselineExpansion(t *testing.T) {
	p := assemble(t, Baseline{}, pseudoSrc)
	want := []isa.Op{isa.OpLw, isa.OpSw, isa.OpHalt}
	if len(p.Code) != len(want) {
		t.Fatalf("got %d instructions, want %d:\n%s", len(p.Code), len(want), isa.Disassemble(p.Code))
	}
	for i, op := range want {
		if p.Code[i].Op != op {
			t.Errorf("instr %d = %v, want %v", i, p.Code[i].Op, op)
		}
	}
	if p.Symbols["lbl"] != 1 {
		t.Errorf("label lbl = %d, want 1", p.Symbols["lbl"])
	}
	// pchk vanished entirely: no extra cycle in the baseline.
}

func TestBaselinePreservesPchkLabel(t *testing.T) {
	p := assemble(t, Baseline{}, `
        .ram 16
        jmp  tgt
tgt:    pchk
        halt
`)
	if p.Symbols["tgt"] != 1 {
		t.Errorf("label on dropped pchk = %d, want 1 (the halt)", p.Symbols["tgt"])
	}
}

func TestSumDMRValidation(t *testing.T) {
	cases := []SumDMR{
		{},                                 // zero offsets
		{ReplicaOffset: 4, CheckOffset: 4}, // equal
		{ReplicaOffset: 3, CheckOffset: 8}, // unaligned
		{ReplicaOffset: 8, CheckOffset: 0}, // zero check
	}
	for _, v := range cases {
		if _, err := v.Apply(parse(t, pseudoSrc)); err == nil {
			t.Errorf("SumDMR%+v must be rejected", v)
		}
	}
	for _, c := range []struct {
		v    TMR
		want string
	}{
		{TMR{}, "harden: TMR offsets must be non-zero"},
		{TMR{Copy2Offset: 4, Copy3Offset: 4}, "harden: TMR offsets must differ"},
		{TMR{Copy2Offset: 3, Copy3Offset: 8}, "harden: TMR offsets must be word-aligned"},
		{TMR{Copy2Offset: 8, Copy3Offset: 0}, "harden: TMR offsets must be non-zero"},
	} {
		if _, err := c.v.Apply(parse(t, pseudoSrc)); err == nil || err.Error() != c.want {
			t.Errorf("TMR%+v: error %v, want %q", c.v, err, c.want)
		}
	}
}

func TestSumDMRRejectsReservedRegisters(t *testing.T) {
	v := SumDMR{ReplicaOffset: 32, CheckOffset: 64}
	for _, src := range []string{
		"pld r11, 0(r2)\n halt",
		"pld r1, 0(r11)\n halt",
		"pst r12, 0(r2)\n halt",
		"pst r1, 0(r12)\n halt",
		"pld r2, 0(r2)\n halt", // rd == base
	} {
		if _, err := v.Apply(parse(t, src)); err == nil {
			t.Errorf("source %q must be rejected", src)
		}
	}
	tmr := TMR{Copy2Offset: 32, Copy3Offset: 64}
	for _, c := range []struct{ src, want string }{
		{"pld r11, 0(r2)\n halt", "harden: line 1: pld operand register r11 is reserved for hardening"},
		{"pld r1, 0(r11)\n halt", "harden: line 1: pld base register r11 is reserved for hardening"},
		{"pst r12, 0(r2)\n halt", "harden: line 1: pst operand register r12 is reserved for hardening"},
		{"pst r1, 0(r12)\n halt", "harden: line 1: pst base register r12 is reserved for hardening"},
		{"pld r2, 0(r2)\n halt", "harden: line 1: pld destination r2 must differ from base register"},
	} {
		if _, err := tmr.Apply(parse(t, c.src)); err == nil || err.Error() != c.want {
			t.Errorf("TMR, source %q: error %v, want %q", c.src, err, c.want)
		}
	}
}

func TestSumDMRRejectsPchkWithoutRegion(t *testing.T) {
	v := SumDMR{ReplicaOffset: 32, CheckOffset: 64}
	if _, err := v.Apply(parse(t, "pchk\n halt")); err == nil {
		t.Error("pchk without a configured region must be rejected")
	}
	tmr := TMR{Copy2Offset: 32, Copy3Offset: 64}
	want := "harden: line 1: pchk used but TMR region is not configured"
	if _, err := tmr.Apply(parse(t, "pchk\n halt")); err == nil || err.Error() != want {
		t.Errorf("TMR pchk without a region: error %v, want %q", err, want)
	}
}

func TestSumDMRExpansionShape(t *testing.T) {
	v := SumDMR{ReplicaOffset: 32, CheckOffset: 64}
	p := assemble(t, v, `
        .ram 128
        pst  r3, 4(r2)
        pld  r1, 4(r2)
        halt
`)
	// pst: sw, sw, xori, sw = 4; pld fast path 3 + slow path 10 = 13.
	if len(p.Code) != 4+13+1 {
		t.Fatalf("expansion length = %d:\n%s", len(p.Code), isa.Disassemble(p.Code))
	}
	// First store hits the primary, second the replica, fourth the check.
	if p.Code[0].Imm != 4 || p.Code[1].Imm != 36 || p.Code[3].Imm != 68 {
		t.Errorf("pst offsets = %d/%d/%d, want 4/36/68",
			p.Code[0].Imm, p.Code[1].Imm, p.Code[3].Imm)
	}
	// Scratch register used for the checksum.
	if p.Code[2].Op != isa.OpXori || p.Code[2].Rd != isa.RegScratch1 {
		t.Errorf("checksum instruction = %v", p.Code[2])
	}
}

func TestSumDMRSymbolicOffsets(t *testing.T) {
	v := SumDMR{ReplicaOffset: 32, CheckOffset: 64}
	p := assemble(t, v, `
        .ram 128
        .equ VAR, 8
        pst  r3, VAR(r2)
        halt
`)
	if p.Code[0].Imm != 8 || p.Code[1].Imm != 40 || p.Code[3].Imm != 72 {
		t.Errorf("symbolic offsets = %d/%d/%d, want 8/40/72",
			p.Code[0].Imm, p.Code[1].Imm, p.Code[3].Imm)
	}
}

func TestSumDMRLabelsUniquePerSite(t *testing.T) {
	v := SumDMR{ReplicaOffset: 32, CheckOffset: 64}
	src := `
        .ram 128
        pld  r1, 0(r2)
        pld  r3, 4(r2)
        halt
`
	if _, err := v.Apply(parse(t, src)); err != nil {
		t.Fatalf("two pld sites must expand without label collisions: %v", err)
	}
	p := assemble(t, v, src)
	if len(p.Code) != 2*13+1 {
		t.Errorf("expansion length = %d, want 27", len(p.Code))
	}
	// TMR's pld: three loads and two branches, then the vote (four
	// instructions), three repair stores and the signal.
	tmr := TMR{Copy2Offset: 32, Copy3Offset: 64}
	if _, err := tmr.Apply(parse(t, src)); err != nil {
		t.Fatalf("two TMR pld sites must expand without label collisions: %v", err)
	}
	if p := assemble(t, tmr, src); len(p.Code) != 2*13+1 {
		t.Errorf("TMR expansion length = %d, want 27", len(p.Code))
	}
}

func TestSumDMRPreservesLabel(t *testing.T) {
	v := SumDMR{ReplicaOffset: 32, CheckOffset: 64}
	p := assemble(t, v, `
        .ram 128
        jmp  entry
entry:  pld  r1, 0(r2)
        halt
`)
	if p.Symbols["entry"] != 1 {
		t.Errorf("entry = %d, want 1", p.Symbols["entry"])
	}
	p = assemble(t, TMR{Copy2Offset: 32, Copy3Offset: 64}, `
        .ram 128
        jmp  entry
entry:  pld  r1, 0(r2)
        halt
`)
	if p.Symbols["entry"] != 1 {
		t.Errorf("TMR entry = %d, want 1", p.Symbols["entry"])
	}
}

func TestDilutionPrependsNops(t *testing.T) {
	p := assemble(t, Chain(Baseline{}, Dilution{NOPs: 4}), `
        .ram 16
        .equ X, 1
start:  sbi 1, 0(r0)
        jmp start2
start2: halt
`)
	for i := 0; i < 4; i++ {
		if p.Code[i].Op != isa.OpNop {
			t.Fatalf("instr %d = %v, want nop", i, p.Code[i].Op)
		}
	}
	// Labels shifted by 4: the jmp must target start2 = 6.
	if p.Code[5].Imm != 6 {
		t.Errorf("jmp target = %d, want 6", p.Code[5].Imm)
	}
	if _, err := (Dilution{NOPs: -1}).Apply(nil); err == nil {
		t.Error("negative NOP count must be rejected")
	}
}

func TestDilutionLoads(t *testing.T) {
	v := Chain(Baseline{}, DilutionLoads{Loads: 3, Addrs: []int64{0, 1}})
	p := assemble(t, v, `
        .ram 16
        sbi 1, 0(r0)
        halt
`)
	wantAddrs := []int32{0, 1, 0}
	for i, a := range wantAddrs {
		ins := p.Code[i]
		if ins.Op != isa.OpLb || ins.Rd != isa.RegScratch1 || ins.Imm != a {
			t.Errorf("instr %d = %v, want lb r11, %d(r0)", i, ins, a)
		}
	}
	if _, err := (DilutionLoads{Loads: 2}).Apply(nil); err == nil {
		t.Error("loads without addresses must be rejected")
	}
	if _, err := (DilutionLoads{Loads: -2, Addrs: []int64{0}}).Apply(nil); err == nil {
		t.Error("negative load count must be rejected")
	}
}

func TestChainNames(t *testing.T) {
	v := Chain(Baseline{}, Dilution{NOPs: 2})
	if got := v.Name(); got != "baseline+dft(2 nops)" {
		t.Errorf("chain name = %q", got)
	}
	if (SumDMR{}).Name() != "sum+dmr" {
		t.Error("SumDMR name wrong")
	}
	if (TMR{}).Name() != "tmr" {
		t.Error("TMR name wrong")
	}
}

func TestVariantsDoNotMutateInput(t *testing.T) {
	stmts := parse(t, pseudoSrc)
	orig := make([]asm.Stmt, len(stmts))
	copy(orig, stmts)
	_, _ = Baseline{}.Apply(stmts)
	v := SumDMR{ReplicaOffset: 32, CheckOffset: 64, RegionBase: 0, RegionWords: 8}
	_, _ = v.Apply(stmts)
	_, _ = (Dilution{NOPs: 3}).Apply(stmts)
	for i := range orig {
		if stmts[i].Name != orig[i].Name || stmts[i].Label != orig[i].Label {
			t.Fatalf("input statement %d mutated", i)
		}
	}
}

func TestChainErrorMentionsVariant(t *testing.T) {
	v := Chain(SumDMR{})
	_, err := v.Apply(parse(t, pseudoSrc))
	if err == nil || !strings.Contains(err.Error(), "sum+dmr") {
		t.Errorf("chain error %v must mention the failing variant", err)
	}
}
