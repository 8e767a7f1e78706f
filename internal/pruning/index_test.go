package pruning_test

import (
	"math/rand"
	"sync"
	"testing"

	"faultspace/internal/campaign"
	"faultspace/internal/machine"
	"faultspace/internal/progs"
	"faultspace/internal/pruning"
)

func sortTarget(t *testing.T) campaign.Target {
	t.Helper()
	prog, err := progs.Sort1(6).Baseline()
	if err != nil {
		t.Fatal(err)
	}
	return campaign.Target{
		Name:  prog.Name,
		Code:  prog.Code,
		Image: prog.Image,
		Mach:  machine.Config{RAMSize: prog.RAMSize, TimerPeriod: prog.TimerPeriod, TimerVector: prog.TimerVector},
	}
}

// TestLocateConcurrentFirstUse: the per-bit index is built by the first
// Locate, and eight goroutines may all be the first — on a space a builder
// just made and on one reconstructed from stored classes. Every lookup
// agrees with a linear search of the class list.
func TestLocateConcurrentFirstUse(t *testing.T) {
	_, built, err := sortTarget(t).PrepareSpace(pruning.SpaceMemory, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := pruning.FromClasses(built.Kind, built.Cycles, built.Bits, built.Classes, built.KnownNoEffect)
	if err != nil {
		t.Fatal(err)
	}
	for name, fs := range map[string]*pruning.FaultSpace{"built": built, "from classes": stored} {
		if fs.Indexed() {
			t.Errorf("%s: index built before the first Locate", name)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				for n := 0; n < 300; n++ {
					// Half the probes aim at a class, the rest anywhere.
					slot, bit := 1+uint64(rng.Int63n(int64(fs.Cycles))), uint64(rng.Int63n(int64(fs.Bits)))
					if c := fs.Classes[rng.Intn(len(fs.Classes))]; n%2 == 0 {
						slot, bit = c.DefCycle+1+uint64(rng.Int63n(int64(c.Weight()))), c.Bit
					}
					want, found := 0, false
					for i, c := range fs.Classes {
						if c.Bit == bit && slot > c.DefCycle && slot <= c.UseCycle {
							want, found = i, true
							break
						}
					}
					ci, ok, err := fs.Locate(slot, bit)
					if err != nil || ok != found || ci != want {
						t.Errorf("%s: Locate(%d, %d) = %d, %v, %v; linear search: %d, %v", name, slot, bit, ci, ok, err, want, found)
						return
					}
				}
			}()
		}
		wg.Wait()
		if !fs.Indexed() {
			t.Errorf("%s: index not built by Locate", name)
		}
	}
}

// TestScanNeverBuildsIndex: a full scan reads the class list only, under
// either strategy and over every fault space, so the campaigns that never
// sample or consult the oracle never pay for the index.
func TestScanNeverBuildsIndex(t *testing.T) {
	target := sortTarget(t)
	for _, kind := range []pruning.SpaceKind{
		pruning.SpaceMemory, pruning.SpaceRegisters, pruning.SpaceSkip,
		pruning.SpacePC, pruning.SpaceBurst2, pruning.SpaceBurst4,
	} {
		for _, strategy := range []campaign.Strategy{campaign.StrategyFork, campaign.StrategyRerun} {
			golden, fs, err := target.PrepareSpace(kind, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := campaign.ResumeScan(target, golden, fs, campaign.Config{Strategy: strategy}, nil); err != nil {
				t.Fatal(err)
			}
			if fs.Indexed() {
				t.Errorf("%s, %s: the scan built the per-bit index", kind, strategy)
			}
		}
	}
}
