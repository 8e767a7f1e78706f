package experiments

import (
	"faultspace"
	"faultspace/internal/campaign"
	"faultspace/internal/metrics"
)

// SamplingResult demonstrates Pitfalls 2 and 3 on one benchmark variant:
// it contrasts the full-scan ground truth with estimates from correct raw
// sampling, effective-population sampling (Corollary 1), and the biased
// class-uniform sampling of Pitfall 2.
type SamplingResult struct {
	Name string
	N    int
	Seed int64

	// Ground truth from a complete fault-space scan.
	TrueFailWeight uint64
	TrueCoverage   float64

	// Raw sampling: uniform over w; the correct procedure.
	Raw SampleEstimate
	// Effective sampling: uniform over w′ (known-No-Effect excluded).
	Effective SampleEstimate
	// Biased sampling: uniform over equivalence classes (Pitfall 2).
	Biased SampleEstimate
}

// SampleEstimate is one sampling campaign's derived numbers.
type SampleEstimate struct {
	Mode        string
	Population  uint64
	SampledFail uint64
	Experiments int

	// FailEstimate is the extrapolated absolute failure count
	// (Pitfall 3, Corollary 2) with its 95 % Wilson interval.
	FailEstimate float64
	FailLo       float64
	FailHi       float64

	// CoverageEstimate is the naive 1 − F_s/N_s coverage this campaign's
	// raw counts suggest (for raw sampling this estimates the true
	// full-space coverage; for biased sampling it is skewed).
	CoverageEstimate float64
}

// Sampling runs the three sampling campaigns plus the ground-truth scan.
func Sampling(p *faultspace.Program, n int, seed int64, opts faultspace.ScanOptions) (*SamplingResult, error) {
	scan, err := faultspace.Scan(p, opts)
	if err != nil {
		return nil, err
	}
	a, err := faultspace.Analyze(scan)
	if err != nil {
		return nil, err
	}
	r := &SamplingResult{
		Name:           p.Name,
		N:              n,
		Seed:           seed,
		TrueFailWeight: a.FailWeight,
		TrueCoverage:   a.CoverageWeighted,
	}
	for _, cfg := range []struct {
		dst  *SampleEstimate
		opts faultspace.SampleOptions
	}{
		{&r.Raw, faultspace.SampleOptions{ScanOptions: opts, N: n, Seed: seed}},
		{&r.Effective, faultspace.SampleOptions{ScanOptions: opts, N: n, Seed: seed, Effective: true}},
		{&r.Biased, faultspace.SampleOptions{ScanOptions: opts, N: n, Seed: seed, Biased: true}},
	} {
		sr, err := faultspace.Sample(p, cfg.opts)
		if err != nil {
			return nil, err
		}
		est, err := estimate(sr)
		if err != nil {
			return nil, err
		}
		*cfg.dst = est
	}
	return r, nil
}

func estimate(sr *campaign.SampleResult) (SampleEstimate, error) {
	est := SampleEstimate{
		Mode:        sr.Mode.String(),
		Population:  sr.Population,
		SampledFail: sr.Failures(),
		Experiments: sr.Experiments,
	}
	var err error
	if est.FailEstimate, err = metrics.ExtrapolateFailures(sr.Population, est.SampledFail, uint64(sr.N)); err != nil {
		return est, err
	}
	iv, err := metrics.WilsonInterval(est.SampledFail, uint64(sr.N), metrics.Z95)
	if err != nil {
		return est, err
	}
	ext := metrics.ExtrapolatedInterval(iv, sr.Population)
	est.FailLo, est.FailHi = ext.Lo, ext.Hi
	if est.CoverageEstimate, err = metrics.CoverageFromSample(est.SampledFail, uint64(sr.N)); err != nil {
		return est, err
	}
	return est, nil
}
