// Package experiments regenerates every table and figure of the paper's
// evaluation. Each function corresponds to one artifact (see DESIGN.md's
// experiment index) and returns structured results: the comparison
// artifacts return the []faultspace.Comparison that Compare builds.
// Rendering lives in internal/report and cmd/favreport.
package experiments

import (
	"faultspace"
	"faultspace/internal/machine"
	"faultspace/internal/metrics"
	"faultspace/internal/progs"
	"faultspace/internal/pruning"
	"faultspace/internal/trace"
)

// Table1 reproduces Table I: Poisson probabilities for k = 0..kMax
// independent faults hitting one benchmark run of Δt = 10⁹ cycles at 1 GHz
// with Δm = 1 MiB of memory, at the mean DRAM soft-error rate of the three
// studies the paper cites (g = 0.057 FIT/Mbit).
func Table1(kMax int) (*metrics.FaultCountTable, error) {
	const (
		deltaT     = 1_000_000_000 // 1 s at 1 GHz
		deltaMBits = 8 << 20       // 1 MiB in bits
		clockHz    = 1e9
	)
	return metrics.BuildFaultCountTable(metrics.MeanPaperRate, deltaT, deltaMBits, clockHz, kMax)
}

// Figure1Result captures the def/use pruning example of Figure 1: a
// 12-cycle × 9-bit fault space where one byte is written at cycle 4 and
// read back at cycle 11.
type Figure1Result struct {
	RawCoordinates uint64  // 108 = 12 × 9
	Experiments    int     // 8: one per bit of the written byte
	ClassWeight    uint64  // 7: the def/use lifetime of each class
	KnownNoEffect  uint64  // coordinates needing no experiment
	NaiveCoverage  float64 // 1 − 4/8, the Pitfall-1 mistake
	WeightCoverage float64 // 1 − 4·7/108 ≈ 74.1 %
	Space          *pruning.FaultSpace
}

// Figure1 builds the paper's illustrative fault space and evaluates both
// accounting rules under the paper's assumption that four of the eight
// experiments fail.
func Figure1() (*Figure1Result, error) {
	g := &trace.Golden{
		Name:    "figure1",
		Cycles:  12,
		RAMBits: 9,
		Accesses: []trace.Access{
			{Cycle: 4, Addr: 0, Size: 1, Kind: machine.AccessWrite},
			{Cycle: 11, Addr: 0, Size: 1, Kind: machine.AccessRead},
		},
	}
	fs, err := pruning.Build(g)
	if err != nil {
		return nil, err
	}
	r := &Figure1Result{
		RawCoordinates: fs.Size(),
		Experiments:    len(fs.Classes),
		KnownNoEffect:  fs.KnownNoEffect,
		Space:          fs,
	}
	if len(fs.Classes) > 0 {
		r.ClassWeight = fs.Classes[0].Weight()
	}
	// The paper assumes four of the eight conducted experiments fail.
	const failed = 4
	if r.NaiveCoverage, err = metrics.Coverage(failed, uint64(r.Experiments)); err != nil {
		return nil, err
	}
	if r.WeightCoverage, err = metrics.Coverage(failed*r.ClassWeight, r.RawCoordinates); err != nil {
		return nil, err
	}
	return r, nil
}

// Compare scans spec's baseline once and each named variant (see
// progs.Spec.Variant), all under opts, and compares each variant with the
// baseline: one Comparison per variant, in order. It is the one
// baseline-vs-variant loop behind every comparison artifact.
func Compare(spec progs.Spec, opts faultspace.ScanOptions, variants ...string) ([]faultspace.Comparison, error) {
	base, err := analyze(spec, "baseline", opts)
	if err != nil {
		return nil, err
	}
	cmps := make([]faultspace.Comparison, len(variants))
	for i, v := range variants {
		a, err := analyze(spec, v, opts)
		if err != nil {
			return nil, err
		}
		if cmps[i], err = faultspace.Compare(base, a); err != nil {
			return nil, err
		}
	}
	return cmps, nil
}

// compareEach runs Compare on each named bundled benchmark at the given
// sizes: benchmark by benchmark, variant by variant.
func compareEach(names []string, sizes progs.Sizes, opts faultspace.ScanOptions, variants ...string) ([]faultspace.Comparison, error) {
	var cmps []faultspace.Comparison
	for _, name := range names {
		spec, err := progs.Resolve(name, sizes)
		if err != nil {
			return nil, err
		}
		c, err := Compare(spec, opts, variants...)
		if err != nil {
			return nil, err
		}
		cmps = append(cmps, c...)
	}
	return cmps, nil
}

// analyze assembles, scans and analyzes one variant of a benchmark.
func analyze(spec progs.Spec, variant string, opts faultspace.ScanOptions) (faultspace.Analysis, error) {
	p, err := spec.Variant(variant)
	if err != nil {
		return faultspace.Analysis{}, err
	}
	scan, err := faultspace.Scan(p, opts)
	if err != nil {
		return faultspace.Analysis{}, err
	}
	return faultspace.Analyze(scan)
}
