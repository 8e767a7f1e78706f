package experiments

import (
	"faultspace"
	"faultspace/internal/progs"
)

// SweepSync2Buffer traces how the hardening verdict for sync2 depends on
// the share of unprotected long-lived data: it compares the sync2 pair,
// baseline vs SUM+DMR, at the given sizes with each unprotected-buffer
// size of bufBytes in turn. The paper explains sync2's degradation by the
// runtime-stretched exposure of data the mechanism does not cover (§V-B);
// sweeping the buffer size makes the mechanism's break-even point
// directly visible: below the crossover the protected kernel state
// dominates and SUM+DMR wins, above it the unprotected buffer dominates
// and SUM+DMR loses ground to its own runtime overhead.
func SweepSync2Buffer(sizes progs.Sizes, bufBytes []int, opts faultspace.ScanOptions) ([]faultspace.Comparison, error) {
	var cmps []faultspace.Comparison
	for _, buf := range bufBytes {
		sizes.SyncBufBytes = buf
		c, err := compareEach([]string{"sync2"}, sizes, opts, "sum+dmr")
		if err != nil {
			return nil, err
		}
		cmps = append(cmps, c...)
	}
	return cmps, nil
}

// Crossover returns the index of the first comparison whose weighted
// failure ratio exceeds 1 (hardening starts hurting), or -1 if the
// verdict never flips within the sweep.
func Crossover(cmps []faultspace.Comparison) int {
	for i, c := range cmps {
		if c.RatioWeighted > 1 {
			return i
		}
	}
	return -1
}
