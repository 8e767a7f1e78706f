package experiments

import (
	"fmt"

	"faultspace"
	"faultspace/internal/progs"
)

// Dilution runs the §IV Gedankenexperiment with n prepended instructions:
// it compares the "Hi" benchmark with itself under the bogus DFT (n NOPs)
// and DFT′ (n dummy loads) "fault-tolerance" transformations, in that
// order. With n = 4 the numbers match the paper exactly: coverage climbs
// from 62.5 % to 75.0 % while the absolute failure count stays at 48.
func Dilution(n int, opts faultspace.ScanOptions) ([]faultspace.Comparison, error) {
	return Compare(progs.Hi(), opts, fmt.Sprintf("dft:%d", n), fmt.Sprintf("dft2:%d", n))
}

// VerifyDilution checks the invariant of the Gedankenexperiment on
// Dilution's two comparisons: neither cheat may change the absolute
// failure count, yet both must raise full-space coverage. It returns an
// error describing the first violated property.
func VerifyDilution(cmps []faultspace.Comparison) error {
	if len(cmps) != 2 {
		return fmt.Errorf("%d dilution comparisons, want two: DFT and DFT'", len(cmps))
	}
	for i, c := range cmps {
		cheat := [...]string{"DFT", "DFT'"}[i]
		if c.Hardened.FailWeight != c.Baseline.FailWeight {
			return fmt.Errorf("%s changed the failure count: %d -> %d",
				cheat, c.Baseline.FailWeight, c.Hardened.FailWeight)
		}
		if c.Hardened.CoverageWeighted <= c.Baseline.CoverageWeighted {
			return fmt.Errorf("%s did not inflate coverage (%g <= %g)",
				cheat, c.Hardened.CoverageWeighted, c.Baseline.CoverageWeighted)
		}
	}
	// DFT' additionally defeats "activated-faults-only" counting: its
	// dummy loads activate the diluted coordinates, so coverage rises even
	// when known-No-Effect coordinates are excluded (§IV-B).
	if prime := cmps[1]; prime.Hardened.CoverageActivatedOnly <= prime.Baseline.CoverageActivatedOnly {
		return fmt.Errorf("DFT' did not inflate activated-only coverage (%g <= %g)",
			prime.Hardened.CoverageActivatedOnly, prime.Baseline.CoverageActivatedOnly)
	}
	return nil
}
