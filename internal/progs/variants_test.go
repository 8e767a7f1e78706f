package progs

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"faultspace/internal/asm"
	"faultspace/internal/isa"
)

var update = flag.Bool("update", false, "rewrite testdata/variants.txt from this tree's programs")

// variantDigest hashes everything a campaign takes from an assembled
// program: the encoded code, the RAM image and size, the timer
// configuration and the symbols in name order.
func variantDigest(p *asm.Program) (string, error) {
	code, err := isa.EncodeProgram(p.Code)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "code %d\n", len(code))
	h.Write(code)
	fmt.Fprintf(h, "image %d\n", len(p.Image))
	h.Write(p.Image)
	fmt.Fprintf(h, "ram %d timer %d %d\n", p.RAMSize, p.TimerPeriod, p.TimerVector)
	names := make([]string, 0, len(p.Symbols))
	for name := range p.Symbols {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "sym %s %d\n", name, p.Symbols[name])
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// TestVariantBytesPinned pins the assembled bytes of every bundled
// program in every variant kind, at the default sizes and at a larger
// set: a change to the hardening passes, the assembler or a program
// source that is meant to keep the programs must leave every line of
// testdata/variants.txt as it is. A variant that does not build pins its
// error text. Regenerate the file with
// `go test ./internal/progs -run TestVariantBytesPinned -update` only when
// a change to the programs is intended.
func TestVariantBytesPinned(t *testing.T) {
	sets := []struct {
		name  string
		sizes Sizes
	}{
		{"default", Sizes{}},
		{"larger", Sizes{BinSemRounds: 7, SyncRounds: 5, SyncBufBytes: 96, ClockTicks: 9, ClockPeriod: 80,
			MboxMessages: 10, PreemptWork: 60, PreemptPeriod: 56, SortElements: 20}},
	}
	var b strings.Builder
	for _, set := range sets {
		for _, name := range Names() {
			spec, err := Resolve(name, set.sizes)
			if err != nil {
				t.Fatal(err)
			}
			for _, variant := range []string{"baseline", "sum+dmr", "tmr", "dft:3", "dft2:3"} {
				fmt.Fprintf(&b, "%s %s %s ", name, set.name, variant)
				p, err := spec.Variant(variant)
				if err != nil {
					fmt.Fprintf(&b, "error: %v\n", err)
					continue
				}
				digest, err := variantDigest(p)
				if err != nil {
					t.Fatalf("%s %s %s: %v", name, set.name, variant, err)
				}
				fmt.Fprintf(&b, "%d %s\n", len(p.Code), digest)
			}
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "variants.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d variant lines, %s pins %d", len(gotLines)-1, path, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("variant differs from %s:\n got %s\nwant %s", path, gotLines[i], wantLines[i])
		}
	}
}
