package campaign

import (
	"fmt"
	"strings"
	"testing"

	"faultspace/internal/pruning"
)

// TestRunMultiSingleCoordMatchesRunSingle: a one-coordinate RunMulti —
// the brute-force door — reproduces the fork scan's outcome of every
// class of hi.
func TestRunMultiSingleCoordMatchesRunSingle(t *testing.T) {
	target := hiTarget(t)
	golden, fs := prepare(t, target)
	scan, err := ResumeScan(target, golden, fs, Config{Strategy: StrategyFork}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range fs.Classes {
		multi, err := RunMulti(target, golden, Config{}, pruning.SpaceMemory,
			[]Coord{{Slot: c.Slot(), Bit: c.Bit}})
		if err != nil {
			t.Fatal(err)
		}
		if multi != scan.Outcomes[i] {
			t.Errorf("class %d %+v: RunMulti=%v fork scan=%v", i, c, multi, scan.Outcomes[i])
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
	res, err := ResumeScan(target, golden, fs, Config{}, nil)
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

// TestKindTable: every fault-space kind of the one table builds a space
// from hi's golden run, and a coordinate of it injects through both
// experiment doors — a scan session and RunMulti — to the same outcome.
// Kind 0 and the first kind past the table are rejected by every door
// that looks a kind up.
func TestKindTable(t *testing.T) {
	target := hiTarget(t)
	kind := pruning.SpaceKind(1)
	for ; kind.Valid(); kind++ {
		golden, fs, err := target.PrepareSpace(kind, 1<<16)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if fs.Kind != kind || len(fs.Classes) == 0 {
			t.Fatalf("%s: built a %s space of %d classes", kind, fs.Kind, len(fs.Classes))
		}
		c := fs.Classes[len(fs.Classes)/2]
		multi, err := RunMulti(target, golden, Config{}, kind, []Coord{{Slot: c.Slot(), Bit: c.Bit}})
		if err != nil {
			t.Fatalf("%s: RunMulti: %v", kind, err)
		}
		s, err := OpenSession(target, golden, fs, Config{Workers: 1})
		if err != nil {
			t.Fatalf("%s: OpenSession: %v", kind, err)
		}
		var scanned Outcome
		if err := s.Run([]int{len(fs.Classes) / 2}, func(_ int, o Outcome) { scanned = o }); err != nil {
			t.Fatalf("%s: Run: %v", kind, err)
		}
		s.Close()
		if multi != scanned {
			t.Errorf("%s: class %+v: RunMulti=%v session=%v", kind, c, multi, scanned)
		}
	}

	golden, fs := prepare(t, target)
	for _, bad := range []pruning.SpaceKind{0, kind} {
		want := fmt.Sprintf("unknown fault-space kind %d", bad)
		if _, _, err := target.PrepareSpace(bad, 1<<16); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("PrepareSpace(%d): %v, want %q", bad, err, want)
		}
		badFS := &pruning.FaultSpace{Kind: bad, Cycles: fs.Cycles, Bits: fs.Bits, Classes: fs.Classes, KnownNoEffect: fs.KnownNoEffect}
		if _, err := OpenSession(target, golden, badFS, Config{}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("OpenSession(kind %d): %v, want %q", bad, err, want)
		}
		if _, err := RunMulti(target, golden, Config{}, bad, []Coord{{Slot: 1, Bit: 0}}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("RunMulti(kind %d): %v, want %q", bad, err, want)
		}
	}
}
