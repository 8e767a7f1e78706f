package campaign

import (
	"testing"

	"faultspace/internal/isa"
	"faultspace/internal/machine"
	"faultspace/internal/trace"
)

func TestOutcomeBenign(t *testing.T) {
	benign := map[Outcome]bool{
		OutcomeNoEffect:              true,
		OutcomeDetectedCorrected:     true,
		OutcomeSDC:                   false,
		OutcomeTimeout:               false,
		OutcomeCPUException:          false,
		OutcomeIllegalInstruction:    false,
		OutcomeDetectedUnrecoverable: false,
		OutcomePrematureHalt:         false,
	}
	if len(benign) != NumOutcomes {
		t.Fatalf("test covers %d outcomes, want %d", len(benign), NumOutcomes)
	}
	for o, want := range benign {
		if o.Benign() != want {
			t.Errorf("%v.Benign() = %v, want %v", o, o.Benign(), want)
		}
		if o.String() == "" {
			t.Errorf("outcome %d has empty name", o)
		}
	}
}

// runToEnd builds a machine for prog, runs it to termination (budget 100)
// and classifies against golden.
func classifyProg(t *testing.T, prog []isa.Instruction, golden *trace.Golden) Outcome {
	t.Helper()
	m, err := machine.New(machine.Config{RAMSize: 8}, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(100)
	return classify(m, golden, nil)
}

func TestClassifyCases(t *testing.T) {
	golden := &trace.Golden{Serial: []byte("AB")}
	serial := int32(machine.PortSerial)
	emit := func(b byte) isa.Instruction {
		return isa.Instruction{Op: isa.OpSbi, Rs: 0, Imm: serial, Imm2: int32(b)}
	}

	tests := []struct {
		name string
		prog []isa.Instruction
		want Outcome
	}{
		{"no-effect", []isa.Instruction{emit('A'), emit('B'), {Op: isa.OpHalt}}, OutcomeNoEffect},
		{"sdc-wrong-byte", []isa.Instruction{emit('A'), emit('X'), {Op: isa.OpHalt}}, OutcomeSDC},
		{"sdc-extra-output", []isa.Instruction{emit('A'), emit('B'), emit('C'), {Op: isa.OpHalt}}, OutcomeSDC},
		{"premature-halt", []isa.Instruction{emit('A'), {Op: isa.OpHalt}}, OutcomePrematureHalt},
		{"timeout", []isa.Instruction{emit('A'), emit('B'), {Op: isa.OpJmp, Imm: 2}}, OutcomeTimeout},
		{"cpu-exception", []isa.Instruction{{Op: isa.OpLw, Rd: 1, Rs: 0, Imm: 999}}, OutcomeCPUException},
		{"illegal", []isa.Instruction{{Op: isa.Op(77)}}, OutcomeIllegalInstruction},
		{"bad-pc", []isa.Instruction{{Op: isa.OpNop}}, OutcomeIllegalInstruction},
		{"detected-unrecoverable", []isa.Instruction{
			{Op: isa.OpSwi, Rs: 0, Imm: int32(machine.PortAbort), Imm2: 1}}, OutcomeDetectedUnrecoverable},
		{"detected-corrected", []isa.Instruction{
			emit('A'), emit('B'),
			{Op: isa.OpSwi, Rs: 0, Imm: int32(machine.PortCorrect), Imm2: 1},
			{Op: isa.OpHalt}}, OutcomeDetectedCorrected},
		{"detected-only-counts-benign", []isa.Instruction{
			emit('A'), emit('B'),
			{Op: isa.OpSwi, Rs: 0, Imm: int32(machine.PortDetect), Imm2: 1},
			{Op: isa.OpHalt}}, OutcomeDetectedCorrected},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := classifyProg(t, tt.prog, golden); got != tt.want {
				t.Errorf("got %v, want %v", got, tt.want)
			}
		})
	}
}

func TestClassifySerialFlood(t *testing.T) {
	golden := &trace.Golden{Serial: []byte("A")}
	m, err := machine.New(machine.Config{RAMSize: 8, MaxSerial: 16}, []isa.Instruction{
		{Op: isa.OpSbi, Rs: 0, Imm: int32(machine.PortSerial), Imm2: 'A'},
		{Op: isa.OpJmp, Imm: 0},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(1000)
	if got := classify(m, golden, nil); got != OutcomeSDC {
		t.Errorf("serial flood classified as %v, want SDC", got)
	}
}

func newTestMachine(t *testing.T, target Target) *machine.Machine {
	t.Helper()
	m, err := target.newMachine()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestClassifyConvergedAllocFree pins the reconvergence path — golden
// match, composition guards, classification — as allocation-free: under
// the fork strategy most experiments end through it, so a single
// allocation there (the old code concatenated prefix and golden-suffix
// serial) puts garbage on the scan hot path. The faultless child below
// matches the golden state of its own cycle by construction.
func TestClassifyConvergedAllocFree(t *testing.T) {
	target := hiTarget(t)
	golden, _ := prepare(t, target)
	pioneer, parent, child := newTestMachine(t, target), newTestMachine(t, target), newTestMachine(t, target)
	_, index, err := machine.CaptureGolden(pioneer, golden.Cycles, golden.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	forker := machine.NewForker(parent, child)
	matcher := index.NewMatcher(forker)
	parent.Run(golden.Cycles / 2)
	forker.Fork()
	budget := Config{}.withDefaults().timeoutBudget(golden.Cycles)
	run := func() {
		at, ok := matcher.Match()
		if !ok || at.Cycle != child.Cycles() || !composable(child, at, golden, budget) {
			t.Fatalf("faultless child matched %+v (ok=%v), want its own cycle %d", at, ok, child.Cycles())
		}
		if o := classifyConverged(child, at, golden, nil); o != OutcomeNoEffect {
			t.Fatalf("faultless converged run classified %v, want No Effect", o)
		}
	}
	run() // warm up lazily-allocated machine state
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("the reconvergence path allocates %.1f times per run, want 0", allocs)
	}
}

// TestClassifyCorrectionsRelativeToGolden ensures that a golden run which
// itself signals corrections (it must not, but defensively) is compared by
// delta, not absolute count.
func TestClassifyCorrectionsRelativeToGolden(t *testing.T) {
	golden := &trace.Golden{Serial: []byte("A"), Corrects: 1}
	prog := []isa.Instruction{
		{Op: isa.OpSbi, Rs: 0, Imm: int32(machine.PortSerial), Imm2: 'A'},
		{Op: isa.OpSwi, Rs: 0, Imm: int32(machine.PortCorrect), Imm2: 1},
		{Op: isa.OpHalt},
	}
	if got := classifyProg(t, prog, golden); got != OutcomeNoEffect {
		t.Errorf("got %v, want NoEffect (correction count equals golden)", got)
	}
}
