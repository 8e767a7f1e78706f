package campaign

import (
	"testing"

	"faultspace/internal/pruning"
)

func TestRunMultiSingleCoordMatchesRunSingle(t *testing.T) {
	target := hiTarget(t)
	golden, fs := prepare(t, target)
	cfg := Config{}.withDefaults()
	for _, c := range fs.Classes[:4] {
		single, err := RunSingle(target, golden, cfg, c.Slot(), c.Bit)
		if err != nil {
			t.Fatal(err)
		}
		multi, err := RunMulti(target, golden, cfg, pruning.SpaceMemory,
			[]Coord{{Slot: c.Slot(), Bit: c.Bit}})
		if err != nil {
			t.Fatal(err)
		}
		if single != multi {
			t.Errorf("class %+v: single=%v multi=%v", c, single, multi)
		}
	}
}

func TestRunMultiSameBitTwiceCancels(t *testing.T) {
	// Flipping the same bit twice at the same slot restores the value:
	// the experiment must behave like the fault never happened.
	target := hiTarget(t)
	golden, fs := prepare(t, target)
	c := fs.Classes[0]
	o, err := RunMulti(target, golden, Config{}, pruning.SpaceMemory,
		[]Coord{{Slot: c.Slot(), Bit: c.Bit}, {Slot: c.Slot(), Bit: c.Bit}})
	if err != nil {
		t.Fatal(err)
	}
	if o != OutcomeNoEffect {
		t.Errorf("double flip of one bit = %v, want No Effect", o)
	}
}

func TestRunMultiOrdersCoordinates(t *testing.T) {
	// Coordinates given in descending slot order must still be injected
	// ascending; the result equals the ascending-order call.
	target := hiTarget(t)
	golden, _ := prepare(t, target)
	cfg := Config{}.withDefaults()
	asc, err := RunMulti(target, golden, cfg, pruning.SpaceMemory,
		[]Coord{{Slot: 2, Bit: 0}, {Slot: 5, Bit: 9}})
	if err != nil {
		t.Fatal(err)
	}
	desc, err := RunMulti(target, golden, cfg, pruning.SpaceMemory,
		[]Coord{{Slot: 5, Bit: 9}, {Slot: 2, Bit: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if asc != desc {
		t.Errorf("order dependence: asc=%v desc=%v", asc, desc)
	}
}

func TestRunMultiValidation(t *testing.T) {
	target := hiTarget(t)
	golden, _ := prepare(t, target)
	if _, err := RunMulti(target, golden, Config{}, pruning.SpaceMemory, nil); err == nil {
		t.Error("empty coordinate list must be rejected")
	}
	if _, err := RunMulti(target, golden, Config{}, pruning.SpaceMemory,
		[]Coord{{Slot: 0, Bit: 0}}); err == nil {
		t.Error("slot 0 must be rejected")
	}
	if _, err := RunMulti(target, golden, Config{}, pruning.SpaceMemory,
		[]Coord{{Slot: golden.Cycles + 1, Bit: 0}}); err == nil {
		t.Error("slot past runtime must be rejected")
	}
	if _, err := RunMulti(target, golden, Config{}, pruning.SpaceMemory,
		[]Coord{{Slot: 1, Bit: 1 << 30}}); err == nil {
		t.Error("bit outside space must be rejected")
	}
}

func TestBenignWeightComplementsFailureWeight(t *testing.T) {
	target := hiTarget(t)
	golden, fs := prepare(t, target)
	res, err := FullScan(target, golden, fs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Count()
	var benign uint64
	for o, w := range c.Weights {
		if Outcome(o).Benign() {
			benign += w
		}
	}
	if failures := NonBenign(c.Weights); benign+failures != fs.ExperimentWeight() {
		t.Errorf("benign %d + failures %d != class weight %d",
			benign, failures, fs.ExperimentWeight())
	}
}
