package faultspace

import (
	"fmt"

	"faultspace/internal/campaign"
	"faultspace/internal/metrics"
)

// Analysis condenses a full fault-space scan into the numbers the paper
// argues about. All "weighted" quantities expand every experiment result
// by its equivalence-class size (data lifetime), avoiding Pitfall 1.
type Analysis struct {
	Name string
	// Space is the fault-space kind the scan covered (memory or, for the
	// §VI-B generalization, the register file).
	Space SpaceKind

	// Fault-space geometry.
	RuntimeCycles uint64 // Δt
	MemoryBits    uint64 // Δm (bits of the scanned space)
	SpaceSize     uint64 // w = Δt·Δm
	Classes       uint64 // experiments conducted after def/use pruning
	KnownNoEffect uint64 // coordinates with a-priori-known "No Effect"

	// Failure counts (benign outcomes excluded).
	FailClasses uint64 // unweighted: failed experiments
	FailWeight  uint64 // weighted: the paper's comparison metric F

	// Attack counts under the campaign's attacker objective (both zero
	// when the scan ran without one). AttackWeight is the attack-surface
	// analogue of FailWeight: the extrapolated number of raw (cycle, bit)
	// coordinates at which the fault achieves the objective.
	AttackClasses uint64
	AttackWeight  uint64

	// Coverage numbers, all of the form 1 − F/N with different (F, N):
	CoverageWeighted      float64 // F = FailWeight,  N = w            (correct accounting)
	CoverageUnweighted    float64 // F = FailClasses, N = Classes      (Pitfall 1)
	CoverageActivatedOnly float64 // F = FailWeight,  N = w′ = w−known (Barbosa-style counting)

	// Per-outcome breakdowns.
	ClassCounts    [campaign.NumOutcomes]uint64 // per outcome, unweighted
	WeightedCounts [campaign.NumOutcomes]uint64 // per outcome, weighted (full space)
}

// Analyze computes the Analysis of a complete scan result; the partial
// result of an interrupted scan is refused with ErrPartialResult.
func Analyze(r *ScanResult) (Analysis, error) {
	if r.Pending > 0 {
		return Analysis{}, fmt.Errorf("faultspace: analyze %s: %w (%d classes pending)", r.Target.Name, ErrPartialResult, r.Pending)
	}
	a := Analysis{
		Name:           r.Target.Name,
		Space:          r.Space.Kind,
		RuntimeCycles:  r.Golden.Cycles,
		MemoryBits:     r.Space.Bits,
		SpaceSize:      r.Space.Size(),
		Classes:        uint64(len(r.Space.Classes)),
		KnownNoEffect:  r.Space.KnownNoEffect,
		FailClasses:    r.FailureClasses(),
		FailWeight:     r.FailureWeight(),
		AttackClasses:  r.AttackClasses(),
		AttackWeight:   r.AttackWeight(),
		ClassCounts:    r.ClassCounts(),
		WeightedCounts: r.FullSpaceCounts(),
	}
	var err error
	if a.CoverageWeighted, err = metrics.Coverage(a.FailWeight, a.SpaceSize); err != nil {
		return a, err
	}
	if a.Classes > 0 {
		if a.CoverageUnweighted, err = metrics.Coverage(a.FailClasses, a.Classes); err != nil {
			return a, err
		}
	} else {
		a.CoverageUnweighted = 1
	}
	if activated := a.SpaceSize - a.KnownNoEffect; activated > 0 {
		if a.CoverageActivatedOnly, err = metrics.Coverage(a.FailWeight, activated); err != nil {
			return a, err
		}
	} else {
		a.CoverageActivatedOnly = 1
	}
	return a, nil
}

// MustAnalyze is Analyze for callers that treat analysis failure as a
// programming error (e.g. examples and benchmarks).
func MustAnalyze(r *ScanResult) Analysis {
	a, err := Analyze(r)
	if err != nil {
		panic(fmt.Sprintf("faultspace: analyze %s: %v", r.Target.Name, err))
	}
	return a
}

// Comparison contrasts a hardened variant with its baseline through every
// metric the paper discusses, making the pitfalls directly visible.
type Comparison struct {
	Baseline Analysis
	Hardened Analysis

	// RatioWeighted is the paper's comparison ratio
	// r = F_hardened/F_baseline over weighted failure counts;
	// the hardened variant improves on the baseline iff r < 1.
	RatioWeighted float64
	// RatioUnweighted is the same ratio computed from unweighted class
	// counts — subject to Pitfall 1.
	RatioUnweighted float64

	// CoverageGainWeighted is the percentage-point coverage change
	// (hardened − baseline) under weighted accounting; positive means the
	// coverage metric *claims* an improvement.
	CoverageGainWeighted float64
	// CoverageGainUnweighted is the same under unweighted accounting.
	CoverageGainUnweighted float64

	// MWTFGain is the Mean-Work-To-Failure improvement (Reis et al.,
	// §VII): MWTF_hardened/MWTF_baseline = 1/RatioWeighted. It always
	// agrees with the paper's metric on the verdict — included to show
	// that a soundly constructed alternative metric does. +Inf when the
	// hardened variant has no failures.
	MWTFGain float64
}

// Compare computes the Comparison of two analyses.
func Compare(baseline, hardened Analysis) (Comparison, error) {
	c := Comparison{Baseline: baseline, Hardened: hardened}
	var err error
	if c.RatioWeighted, err = metrics.Ratio(float64(hardened.FailWeight), float64(baseline.FailWeight)); err != nil {
		return c, err
	}
	if baseline.FailClasses > 0 {
		if c.RatioUnweighted, err = metrics.Ratio(float64(hardened.FailClasses), float64(baseline.FailClasses)); err != nil {
			return c, err
		}
	}
	c.CoverageGainWeighted = metrics.PercentagePoints(hardened.CoverageWeighted, baseline.CoverageWeighted)
	c.CoverageGainUnweighted = metrics.PercentagePoints(hardened.CoverageUnweighted, baseline.CoverageUnweighted)
	if baseline.FailWeight > 0 {
		if c.MWTFGain, err = metrics.MWTFGain(baseline.FailWeight, hardened.FailWeight); err != nil {
			return c, err
		}
	}
	return c, nil
}

// CoverageSaysImproved reports whether the (unfit) fault-coverage metric
// claims the hardened variant improved.
func (c Comparison) CoverageSaysImproved() bool { return c.CoverageGainWeighted > 0 }

// FailuresSayImproved reports whether the paper's metric — extrapolated
// absolute failure counts — shows a real improvement.
func (c Comparison) FailuresSayImproved() bool { return c.RatioWeighted < 1 }

// Misleading reports whether the two metrics disagree: the situation the
// paper demonstrates with sync2, where coverage hides a real degradation.
func (c Comparison) Misleading() bool {
	return c.CoverageSaysImproved() != c.FailuresSayImproved()
}
