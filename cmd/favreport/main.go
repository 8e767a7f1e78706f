// Command favreport regenerates every table and figure of the paper's
// evaluation from scratch on the fav32 simulator.
//
// Usage:
//
//	favreport [flags] <artifact>
//
// Artifacts:
//
//	table1      Table I: Poisson probabilities for k independent faults
//	figure1     Figure 1: def/use pruning example, 108 -> 8 experiments
//	dilution    §IV/Figure 3: the DFT/DFT' fault-space dilution delusion
//	figure2     Figure 2: bin_sem2/sync2 baseline vs SUM+DMR (panels a-g)
//	prunestats  §III-C: experiment-reduction statistics per variant
//	sampling    §III-E/§V-C: Pitfall 2 (biased sampling) and Pitfall 3
//	registers   §VI-B extension: the same comparison under register faults
//	multifault  §III-A extension: SUM+DMR under double faults
//	sweep       §V-B crossover: sync2 verdict vs unprotected-buffer size
//	mechanisms  SUM+DMR vs TMR, compared with the paper's sound metric
//	all         everything above, in paper order
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"faultspace"
	"faultspace/internal/experiments"
	"faultspace/internal/progs"
	"faultspace/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "favreport:", err)
		os.Exit(1)
	}
}

type options struct {
	csv       bool
	samples   int
	seed      int64
	sizes     progs.Sizes
	dilutionN int
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("favreport", flag.ContinueOnError)
	opts := options{}
	fs.BoolVar(&opts.csv, "csv", false, "emit tables as CSV instead of aligned text")
	fs.IntVar(&opts.samples, "n", 2000, "sample count for the sampling artifact")
	fs.Int64Var(&opts.seed, "seed", 1, "PRNG seed for sampling campaigns")
	opts.sizes.RegisterFlags(fs, "binsem-rounds", "sync-rounds", "sync-buf")
	fs.IntVar(&opts.dilutionN, "dilution", 4, "instructions prepended by DFT/DFT'")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("expected exactly one artifact argument")
	}

	artifact := fs.Arg(0)
	switch artifact {
	case "table1":
		return table1(w, opts)
	case "figure1":
		return figure1(w, opts)
	case "dilution":
		return dilution(w, opts)
	case "figure2":
		return figure2(w, opts)
	case "prunestats":
		return pruneStats(w, opts)
	case "sampling":
		return sampling(w, opts)
	case "registers":
		return registerSpace(w, opts)
	case "multifault":
		return multiFault(w, opts)
	case "sweep":
		return sweep(w, opts)
	case "mechanisms":
		return mechanisms(w, opts)
	case "all":
		for _, f := range []func(io.Writer, options) error{
			table1, figure1, dilution, figure2, pruneStats, sampling,
			registerSpace, multiFault, sweep, mechanisms,
		} {
			if err := f(w, opts); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	default:
		return fmt.Errorf("unknown artifact %q", artifact)
	}
}

func renderTable(w io.Writer, t *report.Table, opts options) error {
	if opts.csv {
		return t.RenderCSV(w)
	}
	return t.Render(w)
}

func table1(w io.Writer, opts options) error {
	t1, err := experiments.Table1(5)
	if err != nil {
		return err
	}
	tbl := &report.Table{
		Title: fmt.Sprintf("Table I: Poisson probabilities for k independent faults per run (λ = %.4g)",
			t1.Lambda),
		Headers: []string{"k", "P(k faults)"},
	}
	for _, row := range t1.Rows {
		p := fmt.Sprintf("%.4g", row.P)
		if row.K == 0 {
			p = fmt.Sprintf("%.15f", row.P)
		}
		tbl.AddRow(row.K, p)
	}
	return renderTable(w, tbl, opts)
}

func figure1(w io.Writer, opts options) error {
	f1, err := experiments.Figure1()
	if err != nil {
		return err
	}
	tbl := &report.Table{
		Title:   "Figure 1: def/use pruning of a 12-cycle x 9-bit fault space (W @ cycle 4, R @ cycle 11)",
		Headers: []string{"quantity", "value"},
	}
	tbl.AddRow("raw fault-space coordinates", f1.RawCoordinates)
	tbl.AddRow("experiments after pruning", f1.Experiments)
	tbl.AddRow("weight per equivalence class", f1.ClassWeight)
	tbl.AddRow("known 'No Effect' coordinates", f1.KnownNoEffect)
	tbl.AddRow("coverage, unweighted (Pitfall 1)", fmt.Sprintf("%.1f%%", 100*f1.NaiveCoverage))
	tbl.AddRow("coverage, weighted (correct)", fmt.Sprintf("%.1f%%", 100*f1.WeightCoverage))
	return renderTable(w, tbl, opts)
}

func dilution(w io.Writer, opts options) error {
	d, err := experiments.Dilution(opts.dilutionN, faultspace.ScanOptions{})
	if err != nil {
		return err
	}
	if err := d.Verify(); err != nil {
		return fmt.Errorf("dilution invariants: %w", err)
	}
	tbl := &report.Table{
		Title: fmt.Sprintf("Figure 3/§IV: the fault-space dilution delusion (n = %d)", opts.dilutionN),
		Headers: []string{"variant", "Δt", "w", "F (failures)",
			"coverage", "coverage (activated-only)"},
	}
	for _, v := range []experiments.VariantAnalysis{d.Baseline, d.DFT, d.DFTPrime} {
		tbl.AddRow(v.Name, v.RuntimeCycles, v.SpaceSize, v.FailWeight,
			fmt.Sprintf("%.1f%%", 100*v.CoverageWeighted),
			fmt.Sprintf("%.1f%%", 100*v.CoverageActivatedOnly))
	}
	if err := renderTable(w, tbl, opts); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nCoverage climbs although the failure count F never moves: "+
		"ratio r(DFT) = %.2f, r(DFT') = %.2f.\n", d.CmpDFT.RatioWeighted, d.CmpDFTPrime.RatioWeighted)
	return nil
}

func figure2(w io.Writer, opts options) error {
	f2, err := experiments.Figure2(experiments.Figure2Config{
		BinSemRounds: opts.sizes.BinSemRounds,
		SyncRounds:   opts.sizes.SyncRounds,
		SyncBufBytes: opts.sizes.SyncBufBytes,
	}, faultspace.ScanOptions{})
	if err != nil {
		return err
	}
	pairs := []experiments.Pair{f2.BinSem2, f2.Sync2}

	panels := []struct {
		title string
		unit  string
		value func(experiments.VariantAnalysis) float64
	}{
		{"Figure 2a: fault coverage WITHOUT weighting (Pitfall 1)", "%",
			func(v experiments.VariantAnalysis) float64 { return 100 * v.CoverageUnweighted }},
		{"Figure 2b: fault coverage WITH weighting", "%",
			func(v experiments.VariantAnalysis) float64 { return 100 * v.CoverageWeighted }},
		{"Figure 2d: absolute failure counts WITHOUT weighting (Pitfall 1)", "",
			func(v experiments.VariantAnalysis) float64 { return float64(v.FailClasses) }},
		{"Figure 2e: absolute failure counts WITH weighting (the paper's metric)", "",
			func(v experiments.VariantAnalysis) float64 { return float64(v.FailWeight) }},
		{"Figure 2g-1: runtime (CPU cycles)", " cycles",
			func(v experiments.VariantAnalysis) float64 { return float64(v.RuntimeCycles) }},
		{"Figure 2g-2: memory usage (bytes)", " B",
			func(v experiments.VariantAnalysis) float64 { return float64(v.RAMBytes) }},
	}
	for _, panel := range panels {
		chart := &report.BarChart{Title: panel.title, Unit: panel.unit}
		for _, p := range pairs {
			chart.Add(p.Baseline.Name, panel.value(p.Baseline))
			chart.Add(p.Hardened.Name, panel.value(p.Hardened))
		}
		if err := chart.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}

	tbl := &report.Table{
		Title: "Comparison ratios r = F_hardened/F_baseline (r < 1 means real improvement)",
		Headers: []string{"benchmark", "r (weighted)", "r (unweighted)",
			"coverage gain (pp)", "MWTF gain", "verdict"},
	}
	for _, p := range pairs {
		verdict := "hardening helps"
		if !p.Cmp.FailuresSayImproved() {
			verdict = "hardening HURTS"
		}
		if p.Cmp.Misleading() {
			verdict += " (coverage metric says otherwise!)"
		}
		tbl.AddRow(p.Name,
			fmt.Sprintf("%.3f", p.Cmp.RatioWeighted),
			fmt.Sprintf("%.3f", p.Cmp.RatioUnweighted),
			fmt.Sprintf("%+.2f", p.Cmp.CoverageGainWeighted),
			fmt.Sprintf("%.2fx", p.Cmp.MWTFGain),
			verdict)
	}
	return renderTable(w, tbl, opts)
}

func pruneStats(w io.Writer, opts options) error {
	tbl := &report.Table{
		Title:   "§III-C: def/use pruning effectiveness",
		Headers: []string{"variant", "raw fault space w", "experiments", "known No Effect", "reduction factor"},
	}
	specs := []progs.Spec{progs.BinSem2(opts.sizes.BinSemRounds), progs.Sync2(opts.sizes.SyncRounds, opts.sizes.SyncBufBytes)}
	for _, spec := range specs {
		for _, build := range []func() (*faultspace.Program, error){spec.Baseline, spec.Hardened} {
			p, err := build()
			if err != nil {
				return err
			}
			st, err := experiments.PruneStatsFor(p)
			if err != nil {
				return err
			}
			tbl.AddRow(st.Name, st.SpaceSize, st.Experiments, st.KnownNoEffect,
				fmt.Sprintf("%.0fx", st.ReductionFactor))
		}
	}
	return renderTable(w, tbl, opts)
}

func sampling(w io.Writer, opts options) error {
	spec := progs.Sync2(opts.sizes.SyncRounds, opts.sizes.SyncBufBytes)
	p, err := spec.Baseline()
	if err != nil {
		return err
	}
	s, err := experiments.Sampling(p, opts.samples, opts.seed, faultspace.ScanOptions{})
	if err != nil {
		return err
	}
	tbl := &report.Table{
		Title: fmt.Sprintf("Pitfalls 2 & 3: sampling %s (N = %d, seed = %d); true F = %d, true coverage = %.2f%%",
			s.Name, s.N, s.Seed, s.TrueFailWeight, 100*s.TrueCoverage),
		Headers: []string{"mode", "population", "sampled F", "experiments",
			"F extrapolated [95% CI]", "naive coverage estimate"},
	}
	for _, est := range []experiments.SampleEstimate{s.Raw, s.Effective, s.Biased} {
		tbl.AddRow(est.Mode, est.Population, est.SampledFail, est.Experiments,
			fmt.Sprintf("%.0f [%.0f, %.0f]", est.FailEstimate, est.FailLo, est.FailHi),
			fmt.Sprintf("%.2f%%", 100*est.CoverageEstimate))
	}
	if err := renderTable(w, tbl, opts); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nNote: the class-uniform 'biased' estimator ignores equivalence-class weights")
	fmt.Fprintln(w, "(Pitfall 2); its extrapolation basis is the class count, not the fault space,")
	fmt.Fprintln(w, "so its numbers are not comparable to the raw/effective estimates.")
	return nil
}

func registerSpace(w io.Writer, opts options) error {
	r, err := experiments.RegisterSpace(progs.BinSem2(opts.sizes.BinSemRounds), faultspace.ScanOptions{})
	if err != nil {
		return err
	}
	tbl := &report.Table{
		Title: fmt.Sprintf("§VI-B extension: %s under memory vs register fault models", r.Name),
		Headers: []string{"fault space", "F baseline", "F hardened", "ratio r",
			"coverage gain (pp)", "verdict"},
	}
	for _, row := range []struct {
		name string
		cmp  faultspace.Comparison
	}{
		{"memory (the paper's model)", r.Memory},
		{"registers (§VI-B)", r.Registers},
	} {
		verdict := "helps"
		if !row.cmp.FailuresSayImproved() {
			verdict = "HURTS"
		}
		tbl.AddRow(row.name, row.cmp.Baseline.FailWeight, row.cmp.Hardened.FailWeight,
			fmt.Sprintf("%.3f", row.cmp.RatioWeighted),
			fmt.Sprintf("%+.2f", row.cmp.CoverageGainWeighted), verdict)
	}
	if err := renderTable(w, tbl, opts); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nSUM+DMR replicates memory only; under the register fault model its")
	fmt.Fprintln(w, "runtime overhead multiplies the exposure of live registers instead —")
	fmt.Fprintln(w, "the choice of fault space can invert the conclusion entirely.")
	return nil
}

func multiFault(w io.Writer, opts options) error {
	r, err := experiments.MultiFault(faultspace.ScanOptions{})
	if err != nil {
		return err
	}
	tbl := &report.Table{
		Title:   "§III-A extension: SUM+DMR under single vs double faults (one protected word)",
		Headers: []string{"injection", "experiments", "failures", "failure rate"},
	}
	tbl.AddRow("single fault (any of 96 bits)", r.SingleTotal, r.SingleFailures,
		fmt.Sprintf("%.1f%%", 100*float64(r.SingleFailures)/float64(r.SingleTotal)))
	tbl.AddRow("double fault (all 4560 pairs)", r.PairTotal, r.PairFailures,
		fmt.Sprintf("%.1f%%", 100*r.FailureFraction()))
	for _, key := range []string{"P+R", "C+R", "C+P", "P+P", "R+R", "C+C"} {
		total := r.PairTotalByWords[key]
		if total == 0 {
			continue
		}
		fails := r.PairFailuresByWords[key]
		tbl.AddRow("  pairs "+key, total, fails,
			fmt.Sprintf("%.1f%%", 100*float64(fails)/float64(total)))
	}
	if err := renderTable(w, tbl, opts); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nP = primary, R = replica, C = checksum. The single-fault guarantee is")
	fmt.Fprintln(w, "airtight; pairs spanning two words defeat the complement-checksum vote")
	fmt.Fprintln(w, "(except P+C pairs on different bit positions). §III-A's Poisson argument")
	fmt.Fprintln(w, "is what makes this collapse irrelevant at realistic soft-error rates.")
	return nil
}

func sweep(w io.Writer, opts options) error {
	s, err := experiments.SweepSync2Buffer(opts.sizes.SyncRounds, nil, faultspace.ScanOptions{})
	if err != nil {
		return err
	}
	tbl := &report.Table{
		Title: fmt.Sprintf("§V-B crossover: sync2(n=%d) verdict vs unprotected message-buffer size",
			s.Rounds),
		Headers: []string{"buffer (bytes)", "F baseline", "F hardened", "ratio r",
			"coverage gain (pp)", "verdict"},
	}
	for _, p := range s.Points {
		verdict := "helps"
		if !p.Cmp.FailuresSayImproved() {
			verdict = "HURTS"
		}
		tbl.AddRow(p.BufBytes, p.Cmp.Baseline.FailWeight, p.Cmp.Hardened.FailWeight,
			fmt.Sprintf("%.3f", p.Cmp.RatioWeighted),
			fmt.Sprintf("%+.2f", p.Cmp.CoverageGainWeighted), verdict)
	}
	if err := renderTable(w, tbl, opts); err != nil {
		return err
	}
	first, last := s.Points[0].Cmp.RatioWeighted, s.Points[len(s.Points)-1].Cmp.RatioWeighted
	switch x := s.CrossoverBufBytes(); {
	case x < 0:
		fmt.Fprintln(w, "\nNo crossover within the swept sizes: hardening wins everywhere.")
	case x == s.Points[0].BufBytes:
		fmt.Fprintf(w, "\nFor sync2 the mechanism loses even at the smallest swept buffer: its\n")
		fmt.Fprintf(w, "runtime overhead stretches whatever unprotected long-lived data exists\n")
		fmt.Fprintf(w, "(§V-B), and the damage scales with the buffer share (r: %.1f -> %.1f).\n", first, last)
		fmt.Fprintln(w, "The coverage metric claims an improvement at every single point.")
	default:
		fmt.Fprintf(w, "\nCrossover at a %d-byte buffer: beyond it the unprotected long-lived\n", x)
		fmt.Fprintln(w, "data outweighs the protected kernel state and the mechanism's runtime")
		fmt.Fprintln(w, "overhead turns net-negative (§V-B) — while the coverage metric keeps")
		fmt.Fprintln(w, "claiming an improvement at every point.")
	}
	return nil
}

func mechanisms(w io.Writer, opts options) error {
	m, err := experiments.Mechanisms([]progs.Spec{
		progs.BinSem2(opts.sizes.BinSemRounds),
		progs.Sort1(12),
	}, faultspace.ScanOptions{})
	if err != nil {
		return err
	}
	tbl := &report.Table{
		Title: "Comparing mechanisms with the paper's metric: SUM+DMR vs TMR",
		Headers: []string{"benchmark", "mechanism", "Δt overhead", "F baseline",
			"F hardened", "ratio r", "MWTF gain"},
	}
	for _, row := range m.Rows {
		for _, mech := range []struct {
			name string
			cmp  faultspace.Comparison
		}{{"SUM+DMR", row.SumDMR}, {"TMR", row.TMR}} {
			overhead := float64(mech.cmp.Hardened.RuntimeCycles) /
				float64(mech.cmp.Baseline.RuntimeCycles)
			tbl.AddRow(row.Name, mech.name,
				fmt.Sprintf("%.1fx", overhead),
				mech.cmp.Baseline.FailWeight, mech.cmp.Hardened.FailWeight,
				fmt.Sprintf("%.3f", mech.cmp.RatioWeighted),
				fmt.Sprintf("%.1fx", mech.cmp.MWTFGain))
		}
	}
	if err := renderTable(w, tbl, opts); err != nil {
		return err
	}

	// Double-fault robustness, side by side.
	dmr, err := experiments.MultiFault(faultspace.ScanOptions{})
	if err != nil {
		return err
	}
	tmr, err := experiments.MultiFaultTMR(faultspace.ScanOptions{})
	if err != nil {
		return err
	}
	mf := &report.Table{
		Title:   "Double-fault robustness (all 4560 pairs on one protected word)",
		Headers: []string{"mechanism", "single-fault failures", "pair failures", "pair failure rate"},
	}
	mf.AddRow("SUM+DMR", dmr.SingleFailures,
		dmr.PairFailures, fmt.Sprintf("%.1f%%", 100*dmr.FailureFraction()))
	mf.AddRow("TMR", tmr.SingleFailures,
		tmr.PairFailures, fmt.Sprintf("%.1f%%", 100*tmr.FailureFraction()))
	fmt.Fprintln(w)
	if err := renderTable(w, mf, opts); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nWith a sound comparison metric, the trade-off becomes quantitative:")
	fmt.Fprintln(w, "TMR's bitwise majority is far more robust to fault pairs and cheaper on")
	fmt.Fprintln(w, "store/check-heavy code, while SUM+DMR has the faster load path. Under")
	fmt.Fprintln(w, "the (irrelevant at real rates) double-fault model, only same-bit pairs")
	fmt.Fprintln(w, "in two copies defeat TMR.")
	return nil
}
