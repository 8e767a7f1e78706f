package campaign

import (
	"math/rand"
	"testing"

	"faultspace/internal/pruning"
)

func TestRegisterFullScanHi(t *testing.T) {
	target := hiTarget(t)
	golden, fs, err := target.PrepareSpace(pruning.SpaceRegisters, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Kind != pruning.SpaceRegisters {
		t.Fatalf("kind = %v", fs.Kind)
	}
	// hi reads r1 (written cycle 4, read cycle 5) and r2 (6 -> 7):
	// 64 register classes of weight 1 each.
	if len(fs.Classes) != 64 {
		t.Fatalf("classes = %d, want 64", len(fs.Classes))
	}
	res, err := FullScan(target, golden, fs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The serial port emits only the low byte of the stored register, so
	// exactly the 8 low bits of r1 and r2 are failure classes (SDC); the
	// 24 high bits of each are architecturally masked — No Effect.
	c := res.Count()
	if got := NonBenign(c.Weights); got != 16 {
		t.Errorf("register failure weight = %d, want 16", got)
	}
	counts := c.Classes
	if counts[OutcomeSDC] != 16 {
		t.Errorf("SDC classes = %d, want 16 (%v)", counts[OutcomeSDC], counts)
	}
	if counts[OutcomeNoEffect] != 48 {
		t.Errorf("No Effect classes = %d, want 48 (%v)", counts[OutcomeNoEffect], counts)
	}
}

// TestRegisterPrunedScanEqualsBruteForce extends the def/use equivalence
// property to the register fault space.
func TestRegisterPrunedScanEqualsBruteForce(t *testing.T) {
	if testing.Short() {
		t.Skip("brute-force scan is slow")
	}
	target := hiTarget(t)
	golden, fs, err := target.PrepareSpace(pruning.SpaceRegisters, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	res, err := FullScan(target, golden, fs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{}.withDefaults()
	for slot := uint64(1); slot <= golden.Cycles; slot++ {
		for bit := uint64(0); bit < fs.Bits; bit++ {
			got, err := RunSingleSpace(target, golden, cfg, pruning.SpaceRegisters, slot, bit)
			if err != nil {
				t.Fatal(err)
			}
			ci, inClass, err := fs.Locate(slot, bit)
			if err != nil {
				t.Fatal(err)
			}
			want := OutcomeNoEffect
			if inClass {
				want = res.Outcomes[ci]
			}
			if got != want {
				t.Fatalf("register coordinate (%d, %d): brute=%v pruned=%v", slot, bit, got, want)
			}
		}
	}
}

// TestRegisterBruteForceRandomPrograms extends the register def/use
// equivalence property to random programs. The register space is 480 bits
// wide, so the brute force samples a subset of bits per slot instead of
// enumerating all of them.
func TestRegisterBruteForceRandomPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("brute-force scan is slow")
	}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 6; trial++ {
		target := randomTarget(rng, 8+rng.Intn(8))
		golden, fs, err := target.PrepareSpace(pruning.SpaceRegisters, 1<<12)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		res, err := FullScan(target, golden, fs, Config{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{}.withDefaults()
		for slot := uint64(1); slot <= golden.Cycles; slot++ {
			// All class-member bits at this slot, plus a random benign one.
			bits := map[uint64]struct{}{uint64(rng.Intn(int(fs.Bits))): {}}
			for _, c := range fs.Classes {
				if slot > c.DefCycle && slot <= c.UseCycle {
					bits[c.Bit] = struct{}{}
				}
			}
			for bit := range bits {
				got, err := RunSingleSpace(target, golden, cfg, pruning.SpaceRegisters, slot, bit)
				if err != nil {
					t.Fatal(err)
				}
				ci, inClass, err := fs.Locate(slot, bit)
				if err != nil {
					t.Fatal(err)
				}
				want := OutcomeNoEffect
				if inClass {
					want = res.Outcomes[ci]
				}
				if got != want {
					t.Fatalf("trial %d: register coordinate (%d, %d): brute=%v pruned=%v",
						trial, slot, bit, got, want)
				}
			}
		}
	}
}

func TestRegisterSampling(t *testing.T) {
	target := hiTarget(t)
	golden, fs, err := target.PrepareSpace(pruning.SpaceRegisters, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := SampleScan(target, golden, fs, Config{}, SampleRaw, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Population != fs.Size() {
		t.Errorf("population = %d, want %d", sr.Population, fs.Size())
	}
	// The true register failure count is 16 (low bytes of r1/r2 during
	// their one-cycle lifetimes); the estimate must land in the ballpark.
	est := extrapolated(t, sr)
	if est < 2 || est > 80 {
		t.Errorf("extrapolated register failures = %v, want ~16", est)
	}
}
