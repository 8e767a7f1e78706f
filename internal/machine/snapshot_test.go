package machine

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"faultspace/internal/isa"
)

// buildRandomProgram creates a terminating random program that exercises
// loads, stores, ALU ops and serial output over a tiny RAM.
func buildRandomProgram(rng *rand.Rand, ramSize int, n int) []isa.Instruction {
	prog := make([]isa.Instruction, 0, n+1)
	for i := 0; i < n; i++ {
		r := func() uint8 { return uint8(1 + rng.Intn(10)) }
		addr := int32(rng.Intn(ramSize))
		word := int32(rng.Intn(ramSize/4)) * 4
		switch rng.Intn(8) {
		case 0:
			prog = append(prog, isa.Instruction{Op: isa.OpLi, Rd: r(), Imm: int32(rng.Uint32())})
		case 1:
			prog = append(prog, isa.Instruction{Op: isa.OpAdd, Rd: r(), Rs: r(), Rt: r()})
		case 2:
			prog = append(prog, isa.Instruction{Op: isa.OpXor, Rd: r(), Rs: r(), Rt: r()})
		case 3:
			prog = append(prog, isa.Instruction{Op: isa.OpSb, Rt: r(), Rs: 0, Imm: addr})
		case 4:
			prog = append(prog, isa.Instruction{Op: isa.OpLb, Rd: r(), Rs: 0, Imm: addr})
		case 5:
			prog = append(prog, isa.Instruction{Op: isa.OpSw, Rt: r(), Rs: 0, Imm: word})
		case 6:
			prog = append(prog, isa.Instruction{Op: isa.OpLw, Rd: r(), Rs: 0, Imm: word})
		case 7:
			prog = append(prog, isa.Instruction{Op: isa.OpSb, Rt: r(), Rs: 0, Imm: int32(PortSerial)})
		}
	}
	prog = append(prog, isa.Instruction{Op: isa.OpHalt})
	return prog
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		prog := buildRandomProgram(rng, 32, 60)
		run := func() (*Machine, Status) {
			m, err := New(Config{RAMSize: 32}, prog, nil)
			if err != nil {
				t.Fatal(err)
			}
			return m, m.Run(1000)
		}
		m1, s1 := run()
		m2, s2 := run()
		if s1 != s2 || m1.Cycles() != m2.Cycles() || !bytes.Equal(m1.Serial(), m2.Serial()) {
			t.Fatalf("trial %d: nondeterministic run: %v/%v cycles %d/%d", trial, s1, s2, m1.Cycles(), m2.Cycles())
		}
		for r := 0; r < isa.NumRegs; r++ {
			if m1.Reg(r) != m2.Reg(r) {
				t.Fatalf("trial %d: register r%d differs", trial, r)
			}
		}
	}
}

// TestSnapshotRestoreEquivalence verifies that pausing at an arbitrary
// cycle, snapshotting, restoring into a different machine and resuming
// produces exactly the same final state as an uninterrupted run.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		prog := buildRandomProgram(rng, 32, 80)

		ref, err := New(Config{RAMSize: 32}, prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		refStatus := ref.Run(1000)

		cut := uint64(rng.Intn(int(ref.Cycles()) + 1))
		m, err := New(Config{RAMSize: 32}, prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		m.Run(cut)
		snap := m.Snapshot()

		other, err := New(Config{RAMSize: 32}, prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		other.Restore(snap)
		gotStatus := other.Run(1000)

		if gotStatus != refStatus || other.Cycles() != ref.Cycles() {
			t.Fatalf("trial %d cut %d: status %v/%v cycles %d/%d",
				trial, cut, gotStatus, refStatus, other.Cycles(), ref.Cycles())
		}
		if !bytes.Equal(other.Serial(), ref.Serial()) {
			t.Fatalf("trial %d: serial differs after restore", trial)
		}
		for r := 0; r < isa.NumRegs; r++ {
			if other.Reg(r) != ref.Reg(r) {
				t.Fatalf("trial %d: register r%d differs", trial, r)
			}
		}
	}
}

func TestSnapshotIsolation(t *testing.T) {
	prog := []isa.Instruction{
		{Op: isa.OpSwi, Rs: 0, Imm: 0, Imm2: 1},
		{Op: isa.OpHalt},
	}
	m, err := New(Config{RAMSize: 8}, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	m.Run(10) // writes RAM
	ram, _ := m.ReadRAM(0, 1)
	if ram[0] != 1 {
		t.Fatal("setup failed")
	}
	m.Restore(snap)
	ram, _ = m.ReadRAM(0, 1)
	if ram[0] != 0 {
		t.Error("snapshot must not alias live RAM")
	}
	if m.Status() != StatusRunning || m.Cycles() != 0 {
		t.Error("restore did not reset status/cycles")
	}
}

// TestCloneIndependence: a second machine brought to the first one's
// state by Snapshot and Restore shares nothing mutable with it.
func TestCloneIndependence(t *testing.T) {
	prog := []isa.Instruction{
		{Op: isa.OpSwi, Rs: 0, Imm: 0, Imm2: 7},
		{Op: isa.OpHalt},
	}
	m, err := New(Config{RAMSize: 8}, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{RAMSize: 8}, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Restore(m.Snapshot())
	m.Run(10)
	ram, _ := c.ReadRAM(0, 1)
	if ram[0] != 0 {
		t.Error("clone shares RAM with original")
	}
	if st := c.Run(10); st != StatusHalted {
		t.Errorf("clone run: %v", st)
	}
}

func TestRestoreMismatchedRAMPanics(t *testing.T) {
	m1, _ := New(Config{RAMSize: 8}, []isa.Instruction{{Op: isa.OpHalt}}, nil)
	m2, _ := New(Config{RAMSize: 16}, []isa.Instruction{{Op: isa.OpHalt}}, nil)
	defer func() {
		if recover() == nil {
			t.Error("Restore with mismatched RAM size must panic")
		}
	}()
	m2.Restore(m1.Snapshot())
}

// TestMachineStateCensus: every field of Machine is either in the copied
// core or declared outside it here, with the reason. A new field fails
// the test until someone decides whether Snapshot, Forker.Fork and a rung
// restore must carry it — by adding it to core — or not.
func TestMachineStateCensus(t *testing.T) {
	outside := map[string]string{
		"cfg":       "configuration, fixed at New",
		"rom":       "the program, immune to faults and shared",
		"ram":       "copied beside the core by every copier",
		"serial":    "copied beside the core by every copier",
		"maxSerial": "configuration, fixed at New",
		"hook":      "instrumentation, not state",
		"execHook":  "instrumentation, not state",
		"dirty":     "bookkeeping of the Forker and the golden index",
		"pre":       "a lowering of rom, fixed by SetPredecode",
	}
	typ := reflect.TypeOf(Machine{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch _, listed := outside[f.Name]; {
		case f.Anonymous && f.Type == reflect.TypeOf(core{}):
		case listed:
			delete(outside, f.Name)
		default:
			t.Errorf("Machine.%s is neither in core nor declared outside the copied state", f.Name)
		}
	}
	for name := range outside {
		t.Errorf("Machine has no field %s; drop it from the census", name)
	}
	// A snapshot is the core plus the two buffers, nothing else.
	if n := reflect.TypeOf(Snapshot{}).NumField(); n != 3 {
		t.Errorf("Snapshot has %d fields, want core, ram and serial", n)
	}
}
