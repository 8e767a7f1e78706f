package progs

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
)

// TestLoadVariants drives the one program loader of favscan and favsim
// over every variant string the tools accept, and the ones they refuse.
func TestLoadVariants(t *testing.T) {
	sizes := Sizes{BinSemRounds: 1}
	base, err := Load("bin_sem2", "baseline", sizes)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		variant string
		// wantName is a substring of the built program's name; differs
		// says its code must differ from the baseline's.
		wantName string
		differs  bool
		wantErr  string
	}{
		{variant: "baseline", wantName: "bin_sem2"},
		{variant: "sum+dmr", wantName: "sum+dmr", differs: true},
		{variant: "sumdmr", wantName: "sum+dmr", differs: true},
		{variant: "hardened", wantName: "sum+dmr", differs: true},
		{variant: "tmr", wantName: "tmr", differs: true},
		{variant: "dft:3", wantName: "dft", differs: true},
		{variant: "dft2:3", wantName: "dft", differs: true},
		{variant: "dft:x", wantErr: "bad dft count"},
		{variant: "dft2:", wantErr: "bad dft2 count"},
		{variant: "bogus", wantErr: `unknown variant "bogus" (baseline, sum+dmr, tmr, dft:N, dft2:N)`},
		{variant: "", wantErr: `unknown variant ""`},
	}
	for _, tc := range cases {
		p, err := Load("bin_sem2", tc.variant, sizes)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("variant %q: error %v, want one containing %q", tc.variant, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("variant %q: %v", tc.variant, err)
			continue
		}
		if !strings.Contains(strings.ToLower(p.Name), tc.wantName) {
			t.Errorf("variant %q built %q, want a name containing %q", tc.variant, p.Name, tc.wantName)
		}
		if got := !reflect.DeepEqual(p.Code, base.Code); got != tc.differs {
			t.Errorf("variant %q: code differs from the baseline = %v, want %v", tc.variant, got, tc.differs)
		}
	}
	if _, err := Load("hi", "tmr", sizes); err == nil || !strings.Contains(err.Error(), "no TMR variant") {
		t.Errorf("tmr of a benchmark without protected data: %v, want a no-TMR-variant error", err)
	}
	if _, err := Load("nonsense", "baseline", sizes); err == nil {
		t.Error("unknown benchmark must fail")
	}
	if _, err := Load("/does/not/exist.s", "baseline", sizes); err == nil {
		t.Error("missing assembly file must fail")
	}
}

// TestSizeFlags: the shared registration declares every size flag with
// the registry's default, or only the ones a tool names, and a parsed
// value reaches the benchmark it sizes.
func TestSizeFlags(t *testing.T) {
	var all Sizes
	fs := flag.NewFlagSet("all", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	all.RegisterFlags(fs)
	want := map[string]string{
		"binsem-rounds": "4", "sync-rounds": "3", "sync-buf": "64",
		"clock-ticks": "6", "clock-period": "64", "mbox-messages": "6",
		"preempt-work": "40", "preempt-period": "48", "sort-elements": "12",
	}
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("size flags and defaults = %v, want %v", got, want)
	}
	if err := fs.Parse([]string{"-sort-elements", "5"}); err != nil {
		t.Fatal(err)
	}
	five, err := Load("sort1", "baseline", all)
	if err != nil {
		t.Fatal(err)
	}
	twelve, err := Load("sort1", "baseline", Sizes{})
	if err != nil {
		t.Fatal(err)
	}
	if five.RAMSize >= twelve.RAMSize {
		t.Errorf("-sort-elements 5 built a program with %d bytes of RAM, the default 12 elements %d", five.RAMSize, twelve.RAMSize)
	}

	var three Sizes
	fs = flag.NewFlagSet("three", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	three.RegisterFlags(fs, "binsem-rounds", "sync-rounds", "sync-buf")
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 3 || fs.Lookup("sync-buf") == nil || fs.Lookup("sort-elements") != nil {
		t.Errorf("a tool naming three size flags got %d", n)
	}
}
