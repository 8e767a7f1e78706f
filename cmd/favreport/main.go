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
	"strings"

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

// verdictTable renders a comparison artifact's table: one row per
// comparison, with the cells row derives from it.
func verdictTable(w io.Writer, opts options, title string, headers []string,
	cmps []faultspace.Comparison, row func(i int, c faultspace.Comparison) []any) error {
	tbl := &report.Table{Title: title, Headers: headers}
	for i, c := range cmps {
		tbl.AddRow(row(i, c)...)
	}
	return renderTable(w, tbl, opts)
}

// failureHeaders head failureCells.
var failureHeaders = []string{"F baseline", "F hardened", "ratio r", "coverage gain (pp)", "verdict"}

// failureCells judge a comparison by the paper's metric: both weighted
// failure counts, their ratio r and its verdict, next to the coverage
// gain the unfit metric claims.
func failureCells(c faultspace.Comparison) []any {
	return []any{c.Baseline.FailWeight, c.Hardened.FailWeight,
		fmt.Sprintf("%.3f", c.RatioWeighted),
		fmt.Sprintf("%+.2f", c.CoverageGainWeighted), verdict(c)}
}

// verdict says whether hardening reduced the weighted failure count.
func verdict(c faultspace.Comparison) string {
	if c.FailuresSayImproved() {
		return "helps"
	}
	return "HURTS"
}

// names splits a compared program's name, "bin_sem2/sum+dmr", into its
// benchmark and its variant.
func names(a faultspace.Analysis) (benchmark, variant string) {
	benchmark, variant, _ = strings.Cut(a.Name, "/")
	return benchmark, variant
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
	if err := experiments.VerifyDilution(d); err != nil {
		return fmt.Errorf("dilution invariants: %w", err)
	}
	tbl := &report.Table{
		Title: fmt.Sprintf("Figure 3/§IV: the fault-space dilution delusion (n = %d)", opts.dilutionN),
		Headers: []string{"variant", "Δt", "w", "F (failures)",
			"coverage", "coverage (activated-only)"},
	}
	for _, v := range []faultspace.Analysis{d[0].Baseline, d[0].Hardened, d[1].Hardened} {
		tbl.AddRow(v.Name, v.RuntimeCycles, v.SpaceSize, v.FailWeight,
			fmt.Sprintf("%.1f%%", 100*v.CoverageWeighted),
			fmt.Sprintf("%.1f%%", 100*v.CoverageActivatedOnly))
	}
	if err := renderTable(w, tbl, opts); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nCoverage climbs although the failure count F never moves: "+
		"ratio r(DFT) = %.2f, r(DFT') = %.2f.\n", d[0].RatioWeighted, d[1].RatioWeighted)
	return nil
}

func figure2(w io.Writer, opts options) error {
	cmps, err := experiments.Figure2(opts.sizes, faultspace.ScanOptions{})
	if err != nil {
		return err
	}

	panels := []struct {
		title string
		unit  string
		value func(faultspace.Analysis) float64
	}{
		{"Figure 2a: fault coverage WITHOUT weighting (Pitfall 1)", "%",
			func(v faultspace.Analysis) float64 { return 100 * v.CoverageUnweighted }},
		{"Figure 2b: fault coverage WITH weighting", "%",
			func(v faultspace.Analysis) float64 { return 100 * v.CoverageWeighted }},
		{"Figure 2d: absolute failure counts WITHOUT weighting (Pitfall 1)", "",
			func(v faultspace.Analysis) float64 { return float64(v.FailClasses) }},
		{"Figure 2e: absolute failure counts WITH weighting (the paper's metric)", "",
			func(v faultspace.Analysis) float64 { return float64(v.FailWeight) }},
		{"Figure 2g-1: runtime (CPU cycles)", " cycles",
			func(v faultspace.Analysis) float64 { return float64(v.RuntimeCycles) }},
		{"Figure 2g-2: memory usage (bytes)", " B",
			func(v faultspace.Analysis) float64 { return float64(v.MemoryBits / 8) }},
	}
	for _, panel := range panels {
		chart := &report.BarChart{Title: panel.title, Unit: panel.unit}
		for _, c := range cmps {
			chart.Add(c.Baseline.Name, panel.value(c.Baseline))
			chart.Add(c.Hardened.Name, panel.value(c.Hardened))
		}
		if err := chart.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}

	return verdictTable(w, opts, "Comparison ratios r = F_hardened/F_baseline (r < 1 means real improvement)",
		[]string{"benchmark", "r (weighted)", "r (unweighted)", "coverage gain (pp)", "MWTF gain", "verdict"},
		cmps, func(_ int, c faultspace.Comparison) []any {
			benchmark, _ := names(c.Hardened)
			says := "hardening " + verdict(c)
			if c.Misleading() {
				says += " (coverage metric says otherwise!)"
			}
			return []any{benchmark,
				fmt.Sprintf("%.3f", c.RatioWeighted),
				fmt.Sprintf("%.3f", c.RatioUnweighted),
				fmt.Sprintf("%+.2f", c.CoverageGainWeighted),
				fmt.Sprintf("%.2fx", c.MWTFGain),
				says}
		})
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
	cmps, err := experiments.RegisterSpace(opts.sizes, faultspace.ScanOptions{})
	if err != nil {
		return err
	}
	benchmark, _ := names(cmps[0].Baseline)
	spaces := []string{"memory (the paper's model)", "registers (§VI-B)"}
	err = verdictTable(w, opts, fmt.Sprintf("§VI-B extension: %s under memory vs register fault models", benchmark),
		append([]string{"fault space"}, failureHeaders...),
		cmps, func(i int, c faultspace.Comparison) []any { return append([]any{spaces[i]}, failureCells(c)...) })
	if err != nil {
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
	tbl.AddRow(fmt.Sprintf("single fault (any of %d bits)", r.SingleTotal), r.SingleTotal, r.SingleFailures,
		fmt.Sprintf("%.1f%%", 100*float64(r.SingleFailures)/float64(r.SingleTotal)))
	tbl.AddRow(fmt.Sprintf("double fault (all %d pairs)", r.PairTotal), r.PairTotal, r.PairFailures,
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
	bufs := []int{4, 8, 16, 32, 64, 128}
	cmps, err := experiments.SweepSync2Buffer(opts.sizes, bufs, faultspace.ScanOptions{})
	if err != nil {
		return err
	}
	err = verdictTable(w, opts, fmt.Sprintf("§V-B crossover: sync2(n=%d) verdict vs unprotected message-buffer size",
		opts.sizes.SyncRounds),
		append([]string{"buffer (bytes)"}, failureHeaders...),
		cmps, func(i int, c faultspace.Comparison) []any { return append([]any{bufs[i]}, failureCells(c)...) })
	if err != nil {
		return err
	}
	first, last := cmps[0].RatioWeighted, cmps[len(cmps)-1].RatioWeighted
	switch x := experiments.Crossover(cmps); {
	case x < 0:
		fmt.Fprintln(w, "\nNo crossover within the swept sizes: hardening wins everywhere.")
	case x == 0:
		fmt.Fprintf(w, "\nFor sync2 the mechanism loses even at the smallest swept buffer: its\n")
		fmt.Fprintf(w, "runtime overhead stretches whatever unprotected long-lived data exists\n")
		fmt.Fprintf(w, "(§V-B), and the damage scales with the buffer share (r: %.1f -> %.1f).\n", first, last)
		fmt.Fprintln(w, "The coverage metric claims an improvement at every single point.")
	default:
		fmt.Fprintf(w, "\nCrossover at a %d-byte buffer: beyond it the unprotected long-lived\n", bufs[x])
		fmt.Fprintln(w, "data outweighs the protected kernel state and the mechanism's runtime")
		fmt.Fprintln(w, "overhead turns net-negative (§V-B) — while the coverage metric keeps")
		fmt.Fprintln(w, "claiming an improvement at every point.")
	}
	return nil
}

func mechanisms(w io.Writer, opts options) error {
	cmps, err := experiments.Mechanisms(opts.sizes, faultspace.ScanOptions{})
	if err != nil {
		return err
	}
	err = verdictTable(w, opts, "Comparing mechanisms with the paper's metric: SUM+DMR vs TMR",
		[]string{"benchmark", "mechanism", "Δt overhead", "F baseline", "F hardened", "ratio r", "MWTF gain"},
		cmps, func(_ int, c faultspace.Comparison) []any {
			benchmark, mechanism := names(c.Hardened)
			overhead := float64(c.Hardened.RuntimeCycles) / float64(c.Baseline.RuntimeCycles)
			return []any{benchmark, strings.ToUpper(mechanism),
				fmt.Sprintf("%.1fx", overhead),
				c.Baseline.FailWeight, c.Hardened.FailWeight,
				fmt.Sprintf("%.3f", c.RatioWeighted),
				fmt.Sprintf("%.1fx", c.MWTFGain)}
		})
	if err != nil {
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
		Title:   fmt.Sprintf("Double-fault robustness (all %d pairs on one protected word)", dmr.PairTotal),
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
