package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runSim(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return sb.String()
}

func TestRunHi(t *testing.T) {
	out := runSim(t, "hi")
	for _, want := range []string{`output  : "Hi"`, "cycles  : 8", "128 coordinates"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestDisasmAndTrace(t *testing.T) {
	out := runSim(t, "-disasm", "-trace", "hi")
	if !strings.Contains(out, "sbi 72, 0(r0)") {
		t.Errorf("disassembly missing:\n%s", out)
	}
	if !strings.Contains(out, "write") || !strings.Contains(out, "read ") {
		t.Errorf("trace missing:\n%s", out)
	}
}

func TestVariants(t *testing.T) {
	base := runSim(t, "-binsem-rounds", "2", "bin_sem2")
	hard := runSim(t, "-binsem-rounds", "2", "-variant", "sum+dmr", "bin_sem2")
	if base == hard {
		t.Error("variants produced identical reports")
	}
	if !strings.Contains(hard, "sum+dmr") {
		t.Errorf("hardened report missing variant name:\n%s", hard)
	}
	dft := runSim(t, "-variant", "dft:4", "hi")
	if !strings.Contains(dft, "cycles  : 12") {
		t.Errorf("DFT variant should run 12 cycles:\n%s", dft)
	}
	dft2 := runSim(t, "-variant", "dft2:4", "hi")
	if !strings.Contains(dft2, "cycles  : 12") {
		t.Errorf("DFT' variant should run 12 cycles:\n%s", dft2)
	}
	// favsim loads programs as favscan does: the TMR variant and sort1's
	// size flag work here too.
	if tmr := runSim(t, "-binsem-rounds", "2", "-variant", "tmr", "bin_sem2"); tmr == base || tmr == hard {
		t.Error("the tmr variant produced the baseline or sum+dmr report")
	}
	if runSim(t, "-sort-elements", "4", "sort1") == runSim(t, "sort1") {
		t.Error("-sort-elements did not size sort1")
	}
}

func TestAssemblyFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.s")
	src := `
        .ram 4
        .equ SERIAL, 0x10000
        li   r1, 'x'
        sb   r1, SERIAL(r0)
        halt
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runSim(t, path)
	if !strings.Contains(out, `output  : "x"`) {
		t.Errorf("file program output wrong:\n%s", out)
	}
}

func TestErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"nonsense"}, &sb); err == nil {
		t.Error("unknown benchmark must fail")
	}
	if err := run([]string{"-variant", "bogus", "hi"}, &sb); err == nil {
		t.Error("unknown variant must fail")
	}
	if err := run([]string{"-variant", "dft:x", "hi"}, &sb); err == nil {
		t.Error("malformed dft count must fail")
	}
	if err := run([]string{}, &sb); err == nil {
		t.Error("missing argument must fail")
	}
	if err := run([]string{"/does/not/exist.s"}, &sb); err == nil {
		t.Error("missing file must fail")
	}
}
