package progs

import "testing"

// TestTMRGoldenOutputsMatchBaseline: the TMR variant of every benchmark
// must be behavior-preserving, like SUM+DMR.
func TestTMRGoldenOutputsMatchBaseline(t *testing.T) {
	specs := []Spec{
		BinSem2(4), Sync2(3, 64), Mbox1(6), Clock1(6, 64), Preempt1(40, 48), Sort1(12),
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			base := buildVariant(t, spec, false)
			tmr, err := spec.Variant("tmr")
			if err != nil {
				t.Fatal(err)
			}
			gb := goldenOf(t, base)
			gt := goldenOf(t, tmr)
			if string(gb.Serial) != string(gt.Serial) {
				t.Errorf("TMR output %q != baseline %q", gt.Serial, gb.Serial)
			}
			if gt.Cycles <= gb.Cycles {
				t.Error("TMR must cost runtime")
			}
			// Interrupt-driven benchmarks may race an ISR against a
			// mid-flight protected update; the mechanisms resolve that
			// with a (benign) correction even in fault-free runs.
			if gt.Corrects != 0 && tmr.TimerPeriod == 0 {
				t.Errorf("TMR golden run signalled %d phantom corrections", gt.Corrects)
			}
		})
	}
}

// TestMechanismCostIsWorkloadDependent documents the cost relationship of
// the two mechanisms as implemented: TMR's store is one instruction
// shorter and its region check skips the checksum arithmetic, so it is
// cheaper on the pchk- and store-heavy kernel benchmarks — but its load
// fast path is 5 cycles against SUM+DMR's 3, so SUM+DMR wins on the
// load-dominated sort1.
func TestMechanismCostIsWorkloadDependent(t *testing.T) {
	cheaper := func(spec Spec) bool {
		t.Helper()
		dmr := buildVariant(t, spec, true)
		tmr, err := spec.Variant("tmr")
		if err != nil {
			t.Fatal(err)
		}
		return goldenOf(t, tmr).Cycles < goldenOf(t, dmr).Cycles
	}
	for _, spec := range []Spec{BinSem2(4), Sync2(3, 64), Mbox1(6)} {
		if !cheaper(spec) {
			t.Errorf("%s: TMR should be cheaper than SUM+DMR on kernel workloads", spec.Name)
		}
	}
	if cheaper(Sort1(12)) {
		t.Error("sort1: SUM+DMR should be cheaper than TMR on load-heavy workloads")
	}
}

func TestTMRUnavailableForHi(t *testing.T) {
	if _, err := Hi().Variant("tmr"); err == nil {
		t.Error("hi has no protected data; TMR must be rejected")
	}
}
