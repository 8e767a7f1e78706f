package experiments

import (
	"faultspace"
	"faultspace/internal/progs"
)

// RegisterSpace is the §VI-B extension experiment (beyond the paper's
// evaluation): the bin_sem2 pair at the given sizes, baseline vs SUM+DMR,
// compared under the memory fault model and then under the register
// model. SUM+DMR protects memory only, so the register fault space shows
// how much of the hardened variant's apparent robustness is an artifact
// of where faults are injected — and, because the mechanism stretches
// runtime, register-fault exposure of live registers grows with
// hardening.
func RegisterSpace(sizes progs.Sizes, opts faultspace.ScanOptions) ([]faultspace.Comparison, error) {
	var cmps []faultspace.Comparison
	for _, space := range []faultspace.SpaceKind{faultspace.SpaceMemory, faultspace.SpaceRegisters} {
		opts.Space = space
		c, err := compareEach([]string{"bin_sem2"}, sizes, opts, "sum+dmr")
		if err != nil {
			return nil, err
		}
		cmps = append(cmps, c...)
	}
	return cmps, nil
}
