package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/all.txt and testdata/all.csv from this tree's output")

func runArtifact(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return sb.String()
}

// small keeps campaign workloads tiny for test speed.
var small = []string{"-binsem-rounds", "2", "-sync-rounds", "2", "-sync-buf", "32", "-n", "300"}

func withSmall(artifact string) []string {
	return append(append([]string{}, small...), artifact)
}

func TestTable1Artifact(t *testing.T) {
	out := runArtifact(t, "table1")
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "1.328e-13") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

func TestFigure1Artifact(t *testing.T) {
	out := runArtifact(t, "figure1")
	for _, want := range []string{"108", "74.1%", "50.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestDilutionArtifact(t *testing.T) {
	out := runArtifact(t, "dilution")
	for _, want := range []string{"62.5%", "75.0%", "r(DFT) = 1.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFigure2Artifact(t *testing.T) {
	if testing.Short() {
		t.Skip("scans are slow")
	}
	out := runArtifact(t, withSmall("figure2")...)
	for _, want := range []string{"Figure 2a", "Figure 2e", "hardening HURTS", "hardening helps"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestPruneStatsArtifact(t *testing.T) {
	out := runArtifact(t, withSmall("prunestats")...)
	if !strings.Contains(out, "reduction factor") || !strings.Contains(out, "x") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

func TestSamplingArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("sampling campaigns are slow")
	}
	out := runArtifact(t, withSmall("sampling")...)
	for _, want := range []string{"raw", "effective", "classes(biased)", "95% CI"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRegistersArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("scans are slow")
	}
	out := runArtifact(t, withSmall("registers")...)
	for _, want := range []string{"registers (§VI-B)", "HURTS", "helps"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestMultiFaultArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("4560 experiments")
	}
	out := runArtifact(t, "multifault")
	for _, want := range []string{"single fault", "4560", "45.6%"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSweepArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("many scans")
	}
	out := runArtifact(t, withSmall("sweep")...)
	if !strings.Contains(out, "buffer (bytes)") || !strings.Contains(out, "HURTS") {
		t.Errorf("unexpected sweep output:\n%s", out)
	}
}

func TestMechanismsArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("many scans")
	}
	out := runArtifact(t, withSmall("mechanisms")...)
	for _, want := range []string{"SUM+DMR", "TMR", "Double-fault robustness", "2.1%"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCSVMode(t *testing.T) {
	out := runArtifact(t, "-csv", "table1")
	if !strings.Contains(out, "k,P(k faults)") {
		t.Errorf("CSV header missing:\n%s", out)
	}
}

func TestBadArguments(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"nonsense"}, &sb); err == nil {
		t.Error("unknown artifact must fail")
	}
	if err := run([]string{}, &sb); err == nil {
		t.Error("missing artifact must fail")
	}
	if err := run([]string{"table1", "extra"}, &sb); err == nil {
		t.Error("extra arguments must fail")
	}
}

// TestAllArtifactsPinned pins every table of `favreport all`, aligned and
// CSV, at the default sizes: a refactor of the experiments or the
// rendering must leave the paper's tables byte-identical. Regenerate the
// files with `go test ./cmd/favreport -run TestAllArtifactsPinned -update`
// only when a change to the numbers is intended.
func TestAllArtifactsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("every artifact at full size")
	}
	for _, c := range []struct {
		file string
		args []string
	}{
		{"all.txt", []string{"all"}},
		{"all.csv", []string{"-csv", "all"}},
	} {
		got := runArtifact(t, c.args...)
		path := filepath.Join("testdata", c.file)
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("favreport %s differs from %s:\n%s", strings.Join(c.args, " "), path, got)
		}
	}
}
