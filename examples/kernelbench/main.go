// Kernelbench: the Figure-2 reproduction. Runs complete fault-space scans
// of the bin_sem2 and sync2 kernel benchmarks in their baseline and
// SUM+DMR-hardened variants and prints every panel of the figure,
// culminating in the paper's headline result: for sync2 the coverage
// metric reports an improvement while the program actually became more
// than five times as susceptible to soft errors.
//
// Run with:
//
//	go run ./examples/kernelbench
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"faultspace"
	"faultspace/internal/experiments"
	"faultspace/internal/progs"
	"faultspace/internal/report"
)

func main() {
	cmps, err := experiments.Figure2(progs.Sizes{}, faultspace.ScanOptions{})
	if err != nil {
		log.Fatal(err)
	}

	coverage := &report.BarChart{Title: "fault coverage, weighted (Figure 2b)", Unit: "%"}
	failures := &report.BarChart{Title: "absolute failure counts, weighted (Figure 2e)", Unit: ""}
	runtime := &report.BarChart{Title: "runtime (Figure 2g)", Unit: " cycles"}
	for _, c := range cmps {
		for _, v := range []faultspace.Analysis{c.Baseline, c.Hardened} {
			coverage.Add(v.Name, 100*v.CoverageWeighted)
			failures.Add(v.Name, float64(v.FailWeight))
			runtime.Add(v.Name, float64(v.RuntimeCycles))
		}
	}
	for _, c := range []*report.BarChart{coverage, failures, runtime} {
		if err := c.Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}

	for _, c := range cmps {
		verdict := "the mechanism helps"
		if !c.FailuresSayImproved() {
			verdict = "the mechanism makes the program MORE susceptible"
		}
		benchmark, _, _ := strings.Cut(c.Baseline.Name, "/")
		fmt.Printf("%s:\n", benchmark)
		fmt.Printf("  coverage gain: %+.1f pp (the coverage metric %s an improvement)\n",
			c.CoverageGainWeighted, claims(c.CoverageSaysImproved()))
		fmt.Printf("  failure ratio: r = %.2f -> %s\n", c.RatioWeighted, verdict)
		if c.Misleading() {
			fmt.Println("  ** the two metrics disagree: trusting fault coverage here leads")
			fmt.Println("     to a wrong design decision (the paper's sync2 result, §V-B) **")
		}
		fmt.Println()
	}
}

func claims(b bool) string {
	if b {
		return "claims"
	}
	return "denies"
}
