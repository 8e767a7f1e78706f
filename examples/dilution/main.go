// Dilution: the paper's §IV Gedankenexperiment end-to-end. A bogus
// "fault-tolerance" transformation (DFT) that merely prepends NOPs inflates
// the fault-coverage metric from 62.5 % to 75.0 % — and DFT′ (dummy loads)
// defeats the "count only activated faults" rule too — while the absolute
// failure count exposes both as useless.
//
// Run with:
//
//	go run ./examples/dilution [n]
//
// where n is the number of prepended instructions (default 4, the paper's
// value; try larger n to push coverage arbitrarily close to 100 %).
package main

import (
	"fmt"
	"log"
	"os"
	"strconv"

	"faultspace"
	"faultspace/internal/experiments"
)

func main() {
	n := 4
	if len(os.Args) > 1 {
		v, err := strconv.Atoi(os.Args[1])
		if err != nil || v < 0 {
			log.Fatalf("bad dilution count %q", os.Args[1])
		}
		n = v
	}

	d, err := experiments.Dilution(n, faultspace.ScanOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if err := experiments.VerifyDilution(d); err != nil {
		log.Fatalf("dilution invariants violated: %v", err)
	}

	fmt.Printf("the fault-space dilution delusion (n = %d)\n\n", n)
	fmt.Printf("%-22s %6s %8s %6s %10s %16s\n",
		"variant", "Δt", "w", "F", "coverage", "activated-only")
	for _, v := range []faultspace.Analysis{d[0].Baseline, d[0].Hardened, d[1].Hardened} {
		fmt.Printf("%-22s %6d %8d %6d %9.1f%% %15.1f%%\n",
			v.Name, v.RuntimeCycles, v.SpaceSize, v.FailWeight,
			100*v.CoverageWeighted, 100*v.CoverageActivatedOnly)
	}

	fmt.Println()
	fmt.Printf("coverage gain from DFT:  %+.1f percentage points — for a transformation\n",
		d[0].CoverageGainWeighted)
	fmt.Println("that provably prevents nothing:")
	fmt.Printf("failure-count ratio r(DFT)  = %.3f (1.000 = exactly as susceptible)\n",
		d[0].RatioWeighted)
	fmt.Printf("failure-count ratio r(DFT') = %.3f\n", d[1].RatioWeighted)
	fmt.Println()
	if d[0].Misleading() {
		fmt.Println("-> the fault-coverage metric was successfully fooled (Pitfall 3);")
		fmt.Println("   the absolute failure count was not.")
	}
}
