package experiments

import (
	"faultspace"
	"faultspace/internal/progs"
)

// Mechanisms compares the two implemented fault-tolerance mechanisms —
// SUM+DMR (duplication + complement checksum) and TMR (bitwise-majority
// triplication) — the way the paper demands mechanisms be compared: by
// extrapolated absolute failure counts over each variant's own complete
// fault space. This is the toolkit's "so what" demo: once the metric is
// sound, mechanism trade-offs (runtime overhead vs double-fault
// robustness vs load-path latency) become measurable instead of arguable.
//
// It returns four comparisons: bin_sem2 and then sort1 at the given
// sizes, each against SUM+DMR and then TMR, the pair sharing one
// baseline scan.
func Mechanisms(sizes progs.Sizes, opts faultspace.ScanOptions) ([]faultspace.Comparison, error) {
	return compareEach([]string{"bin_sem2", "sort1"}, sizes, opts, "sum+dmr", "tmr")
}
