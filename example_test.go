package faultspace_test

import (
	"fmt"
	"log"

	"faultspace"
	"faultspace/internal/metrics"
	"faultspace/internal/progs"
)

// Example demonstrates the core pipeline on the paper's §IV "Hi" program:
// assemble, scan the complete fault space, and read both the per-program
// coverage and the comparison-safe absolute failure count.
func Example() {
	src := `
        .ram    2
        .equ    SERIAL, 0x10000
        sbi     'H', 0(r0)
        nop
        sbi     'i', 1(r0)
        lb      r1, 0(r0)
        sb      r1, SERIAL(r0)
        lb      r2, 1(r0)
        sb      r2, SERIAL(r0)
        halt
`
	prog, err := faultspace.AssembleSource("hi", src)
	if err != nil {
		log.Fatal(err)
	}
	scan, err := faultspace.Scan(prog, faultspace.ScanOptions{})
	if err != nil {
		log.Fatal(err)
	}
	a, err := faultspace.Analyze(scan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("output %q, w = %d, F = %d, coverage = %.1f%%\n",
		scan.Golden.Serial, a.SpaceSize, a.FailWeight, 100*a.CoverageWeighted)
	// Output: output "Hi", w = 128, F = 48, coverage = 62.5%
}

// ExampleCompare shows how the dilution cheat (§IV-B) fools coverage but
// not the failure-count metric.
func ExampleCompare() {
	spec := progs.Hi()
	base, err := spec.Baseline()
	if err != nil {
		log.Fatal(err)
	}
	diluted, err := spec.Variant("dft:4")
	if err != nil {
		log.Fatal(err)
	}

	analyze := func(p *faultspace.Program) faultspace.Analysis {
		scan, err := faultspace.Scan(p, faultspace.ScanOptions{})
		if err != nil {
			log.Fatal(err)
		}
		return faultspace.MustAnalyze(scan)
	}
	cmp, err := faultspace.Compare(analyze(base), analyze(diluted))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("coverage gain: %+.1f pp\n", cmp.CoverageGainWeighted)
	fmt.Printf("failure ratio: %.3f\n", cmp.RatioWeighted)
	fmt.Printf("misleading: %v\n", cmp.Misleading())
	// Output:
	// coverage gain: +12.5 pp
	// failure ratio: 1.000
	// misleading: true
}

// ExampleSample estimates failure counts from a sampling campaign and
// extrapolates them to the fault-space size (§V-C, Corollary 2).
func ExampleSample() {
	prog, err := progs.Hi().Baseline()
	if err != nil {
		log.Fatal(err)
	}
	sr, err := faultspace.Sample(prog, faultspace.SampleOptions{N: 4000, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("population %d, experiments executed %d\n", sr.Population, sr.Experiments)
	est, err := metrics.ExtrapolateFailures(sr.Population, sr.Failures(), uint64(sr.N))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("extrapolated failures ~%.0f (truth: 48)\n", est)
	// Output:
	// population 128, experiments executed 16
	// extrapolated failures ~47 (truth: 48)
}
