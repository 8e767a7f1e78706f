package experiments

import (
	"faultspace"
	"faultspace/internal/progs"
)

// Figure2 runs the four full fault-space scans behind Figure 2 and
// returns two comparisons, bin_sem2's and sync2's, each baseline vs
// SUM+DMR. Every panel of the figure follows from their analyses (the
// memory use of 2g is the memory fault space's size in bytes):
//
//	2a  unweighted fault coverage     (Analysis.CoverageUnweighted)
//	2b  weighted fault coverage       (Analysis.CoverageWeighted)
//	2d  unweighted failure counts     (Analysis.FailClasses)
//	2e  weighted failure counts       (Analysis.FailWeight)
//	2g  runtime and memory usage      (Analysis.RuntimeCycles, MemoryBits/8)
func Figure2(sizes progs.Sizes, opts faultspace.ScanOptions) ([]faultspace.Comparison, error) {
	return compareEach([]string{"bin_sem2", "sync2"}, sizes, opts, "sum+dmr")
}

// PruneStats reports the §III-C experiment-reduction numbers for one
// benchmark variant: raw fault-space size w versus conducted experiments.
type PruneStats struct {
	Name            string
	SpaceSize       uint64
	Experiments     uint64
	KnownNoEffect   uint64
	ReductionFactor float64
}

// PruneStatsFor computes pruning statistics for a program.
func PruneStatsFor(p *faultspace.Program) (PruneStats, error) {
	t := faultspace.Target(p)
	_, fs, err := t.Prepare(faultspace.DefaultMaxGoldenCycles)
	if err != nil {
		return PruneStats{}, err
	}
	return PruneStats{
		Name:            p.Name,
		SpaceSize:       fs.Size(),
		Experiments:     uint64(len(fs.Classes)),
		KnownNoEffect:   fs.KnownNoEffect,
		ReductionFactor: fs.ReductionFactor(),
	}, nil
}
