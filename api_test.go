package faultspace

import (
	"strings"
	"testing"

	"faultspace/internal/progs"
)

func TestAssembleSourceErrors(t *testing.T) {
	if _, err := AssembleSource("bad", "frobnicate r1\n"); err == nil {
		t.Error("bad source must fail")
	}
	if _, err := AssembleSource("pseudo", "pld r1, 0(r2)\nhalt\n"); err == nil {
		t.Error("unexpanded pseudo instructions must fail")
	}
}

func TestMachineConfigCarriesTimer(t *testing.T) {
	p, err := progs.Clock1(2, 64).Baseline()
	if err != nil {
		t.Fatal(err)
	}
	cfg := MachineConfig(p)
	if cfg.TimerPeriod != 64 || cfg.RAMSize != p.RAMSize {
		t.Errorf("config %+v does not match program", cfg)
	}
	if cfg.TimerVector == 0 {
		t.Error("timer vector not propagated")
	}
}

func TestSampleOptionValidation(t *testing.T) {
	p, err := progs.Hi().Baseline()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Sample(p, SampleOptions{N: 10, Biased: true, Effective: true}); err == nil {
		t.Error("Biased+Effective must be rejected")
	}
	if _, err := Sample(p, SampleOptions{N: 0}); err == nil {
		t.Error("N = 0 must be rejected")
	}
}

func TestScanGoldenFailurePropagates(t *testing.T) {
	p, err := AssembleSource("spin", "jmp 0\n")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Scan(p, ScanOptions{MaxGoldenCycles: 100})
	if err == nil || !strings.Contains(err.Error(), "did not halt") {
		t.Errorf("non-halting golden run must fail usefully, got %v", err)
	}
}

func TestCompareErrorOnFailureFreeBaseline(t *testing.T) {
	a := Analysis{FailWeight: 0}
	b := Analysis{FailWeight: 5}
	if _, err := Compare(a, b); err == nil {
		t.Error("comparison against a failure-free baseline must error")
	}
}

func TestMustAnalyzePanicsOnBadResult(t *testing.T) {
	p, err := progs.Hi().Baseline()
	if err != nil {
		t.Fatal(err)
	}
	scan, err := Scan(p, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the result so Analyze must fail.
	scan.Space.Cycles = 0
	scan.Space.Bits = 0
	defer func() {
		if recover() == nil {
			t.Error("MustAnalyze must panic on analysis failure")
		}
	}()
	MustAnalyze(scan)
}

func TestComparisonVerdictHelpers(t *testing.T) {
	a := Analysis{FailWeight: 100, SpaceSize: 1000, CoverageWeighted: 0.9}
	b := Analysis{FailWeight: 50, SpaceSize: 2000, CoverageWeighted: 0.975}
	cmp, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.FailuresSayImproved() || !cmp.CoverageSaysImproved() || cmp.Misleading() {
		t.Errorf("consistent improvement misclassified: %+v", cmp)
	}
	if cmp.MWTFGain != 2 {
		t.Errorf("MWTF gain = %v, want 2", cmp.MWTFGain)
	}

	worse := Analysis{FailWeight: 600, SpaceSize: 4000, CoverageWeighted: 0.95}
	cmp, err = Compare(a, worse)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.FailuresSayImproved() {
		t.Error("6x more failures is not an improvement")
	}
	if !cmp.CoverageSaysImproved() || !cmp.Misleading() {
		t.Errorf("the dilution situation must be flagged misleading: %+v", cmp)
	}
}

func TestScanAllRegisteredBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("scans are slow")
	}
	// Every registered benchmark must survive assembly, golden run, and a
	// full scan in both variants — the end-to-end contract of the
	// registry.
	for _, name := range progs.Names() {
		spec, err := progs.Resolve(name, progs.Sizes{
			BinSemRounds: 2, SyncRounds: 2, SyncBufBytes: 32,
			ClockTicks: 2, MboxMessages: 3, PreemptWork: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, build := range []func() (*Program, error){spec.Baseline, spec.Hardened} {
			p, err := build()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			scan, err := Scan(p, ScanOptions{})
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			a := MustAnalyze(scan)
			if a.SpaceSize == 0 || a.Classes == 0 {
				t.Errorf("%s: degenerate scan %+v", p.Name, a)
			}
		}
	}
}

// TestScanOptionsSpaceValidation pins the admission-time space check: an
// unknown SpaceKind — e.g. a campaign built by a newer client submitted
// to an older binary — must fail loudly instead of silently scanning
// SpaceMemory.
func TestScanOptionsSpaceValidation(t *testing.T) {
	cases := []struct {
		name string
		in   SpaceKind
		want SpaceKind
		ok   bool
	}{
		{"zero-defaults-to-memory", 0, SpaceMemory, true},
		{"memory", SpaceMemory, SpaceMemory, true},
		{"registers", SpaceRegisters, SpaceRegisters, true},
		{"skip", SpaceSkip, SpaceSkip, true},
		{"pc", SpacePC, SpacePC, true},
		{"burst2", SpaceBurst2, SpaceBurst2, true},
		{"burst4", SpaceBurst4, SpaceBurst4, true},
		{"one-past-last", SpaceBurst4 + 1, 0, false},
		{"garbage", SpaceKind(99), 0, false},
		{"max", SpaceKind(255), 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, _, err := ScanOptions{Space: tc.in}.resolve()
			if tc.ok {
				if err != nil {
					t.Fatalf("resolve() = %v, want %v", err, tc.want)
				}
				if got != tc.want {
					t.Fatalf("resolve() = %v, want %v", got, tc.want)
				}
				return
			}
			if err == nil {
				t.Fatalf("resolve() accepted unknown kind %d as %v", tc.in, got)
			}
			if !strings.Contains(err.Error(), "unknown fault-space kind") {
				t.Fatalf("resolve() error %q does not name the failure", err)
			}
		})
	}

	// The validation must reach every public entry point.
	p, err := progs.Hi().Baseline()
	if err != nil {
		t.Fatal(err)
	}
	bad := ScanOptions{Space: SpaceKind(42)}
	if _, err := Scan(p, bad); err == nil {
		t.Error("Scan accepted an unknown space kind")
	}
	if _, err := CampaignIdentity(p, bad); err == nil {
		t.Error("CampaignIdentity accepted an unknown space kind")
	}
	if _, err := Sample(p, SampleOptions{ScanOptions: bad, N: 1}); err == nil {
		t.Error("Sample accepted an unknown space kind")
	}
}
