// Package campaign executes fault-injection campaigns: full fault-space
// scans over def/use equivalence classes and sampling campaigns, with
// experiment outcomes classified against a golden run.
//
// It is the FAIL*-shaped engine of this reproduction: deterministic,
// repeatable experiments with full controllability of where and when the
// fault is injected (§I of the paper).
package campaign

import (
	"bytes"
	"fmt"

	"faultspace/internal/machine"
	"faultspace/internal/trace"
)

// Outcome is the experiment-outcome type of one fault-injection run.
// The set mirrors the eight outcome types of the paper's data set (§II-D):
// two benign types and six failure modes.
type Outcome uint8

// Experiment outcomes.
const (
	// OutcomeNoEffect: the run behaved exactly like the golden run.
	OutcomeNoEffect Outcome = iota
	// OutcomeDetectedCorrected: output identical to the golden run and a
	// fault-tolerance mechanism signalled a detection/correction. Benign.
	OutcomeDetectedCorrected
	// OutcomeSDC: silent data corruption — the run terminated normally but
	// its output differs from the golden run.
	OutcomeSDC
	// OutcomeTimeout: the run exceeded its cycle budget.
	OutcomeTimeout
	// OutcomeCPUException: a memory-related CPU exception (out-of-range or
	// misaligned access, load from an MMIO port).
	OutcomeCPUException
	// OutcomeIllegalInstruction: control flow escaped the program (bad PC)
	// or an invalid opcode was executed.
	OutcomeIllegalInstruction
	// OutcomeDetectedUnrecoverable: a fault-tolerance mechanism detected an
	// unrecoverable error and shut the system down (store to PortAbort).
	OutcomeDetectedUnrecoverable
	// OutcomePrematureHalt: the run halted with a strict prefix of the
	// golden output — it terminated too early.
	OutcomePrematureHalt

	// NumOutcomes is the number of outcome types.
	NumOutcomes = int(OutcomePrematureHalt) + 1
)

// AttackFlag marks an outcome as attack-success under the campaign's
// attacker objective (see objective.go). It is a high bit OR-ed onto the
// base outcome so the flagged value still fits the single byte used by
// checkpoint entries, wire submissions and archives; code that indexes
// per-outcome arrays must go through Base().
const AttackFlag Outcome = 0x80

// Base strips the attack flag, returning the paper-taxonomy outcome.
func (o Outcome) Base() Outcome { return o &^ AttackFlag }

// Attack reports whether the experiment satisfied the campaign's
// attacker objective.
func (o Outcome) Attack() bool { return o&AttackFlag != 0 }

// Known reports whether o is a valid outcome byte: a known base outcome,
// with or without the attack flag.
func (o Outcome) Known() bool { return int(o.Base()) < NumOutcomes }

var outcomeNames = [NumOutcomes]string{
	"No Effect",
	"Detected & Corrected",
	"SDC",
	"Timeout",
	"CPU Exception",
	"Illegal Instruction",
	"Detected Unrecoverable",
	"Premature Halt",
}

// String returns the outcome name as used in reports; attack-flagged
// outcomes carry an " (attack)" suffix.
func (o Outcome) String() string {
	if int(o.Base()) >= NumOutcomes {
		return fmt.Sprintf("outcome(%d)", uint8(o))
	}
	if o.Attack() {
		return outcomeNames[o.Base()] + " (attack)"
	}
	return outcomeNames[o]
}

var outcomeMetricNames = [NumOutcomes]string{
	"no_effect",
	"detected_corrected",
	"sdc",
	"timeout",
	"cpu_exception",
	"illegal_instruction",
	"detected_unrecoverable",
	"premature_halt",
}

// MetricName returns the outcome's snake_case identifier as used in
// telemetry metric names (e.g. "scan.outcome.no_effect"). The attack
// flag does not change the metric name; attack successes are counted
// separately.
func (o Outcome) MetricName() string {
	if int(o.Base()) < NumOutcomes {
		return outcomeMetricNames[o.Base()]
	}
	return fmt.Sprintf("outcome_%d", uint8(o))
}

// Benign reports whether the outcome has no externally visible effect.
// Benign outcomes coalesce into "No Effect" and the remaining six into
// "Failure" for the paper's two-way analysis (§II-D).
func (o Outcome) Benign() bool {
	b := o.Base()
	return b == OutcomeNoEffect || b == OutcomeDetectedCorrected
}

// classify maps a finished experiment machine to an outcome, evaluating
// the campaign's attacker objective (nil = none) on the way. Together
// with classifyConverged it is the only status → outcome mapping, so
// plain run-outs and composed reconvergences flag attack successes
// identically.
func classify(m *machine.Machine, golden *trace.Golden, obj *Objective) Outcome {
	status, exc := m.Status(), m.Exception()
	detects, corrects := m.DetectCount(), m.CorrectCount()
	var base Outcome
	switch status {
	case machine.StatusRunning:
		base = OutcomeTimeout
	case machine.StatusAborted:
		base = OutcomeDetectedUnrecoverable
	case machine.StatusExcepted:
		switch exc {
		case machine.ExcIllegalOp, machine.ExcBadPC:
			base = OutcomeIllegalInstruction
		case machine.ExcSerialLimit:
			// The run flooded the serial port; its output necessarily
			// diverged from the golden run.
			base = OutcomeSDC
		default:
			base = OutcomeCPUException
		}
	case machine.StatusHalted:
		base = classifyHaltedParts(m.SerialView(), nil, detects, corrects, golden)
	default:
		// Unreachable with a correct machine; classify conservatively.
		base = OutcomeSDC
	}
	return obj.apply(base, status, exc, m.SerialLen(), detects, corrects, golden)
}

// classifyHaltedParts classifies a run that halted normally with the
// given final serial output and event counters, the output given as
// prefix + suffix and compared without concatenation: the run's output
// is the golden output / a strict prefix of it / something else exactly
// when the two parts line up against the corresponding golden slices.
// An empty suffix degenerates to the plain whole-output comparison.
func classifyHaltedParts(prefix, suffix []byte, detects, corrects uint64, golden *trace.Golden) Outcome {
	g := golden.Serial
	n := len(prefix) + len(suffix)
	if len(prefix) <= len(g) && n <= len(g) &&
		bytes.Equal(prefix, g[:len(prefix)]) &&
		bytes.Equal(suffix, g[len(prefix):n]) {
		if n == len(g) {
			if corrects > golden.Corrects || detects > golden.Detects {
				return OutcomeDetectedCorrected
			}
			return OutcomeNoEffect
		}
		return OutcomePrematureHalt
	}
	return OutcomeSDC
}

// classifyConverged classifies an experiment whose machine state equals
// the golden run's at the matched cycle `at` (machine.Matcher): the
// continuation is the golden run's from there, cycle for cycle, ending
// in a normal halt, so the final serial output and event counters are
// the current values plus the golden remainder — no further simulation
// needed. The caller has checked that the remainder fits the cycle
// budget and the serial cap (composable); within them the composed run
// is exactly the one a run-out would produce. The two serial parts are
// compared in place (classifyHaltedParts), never concatenated, keeping
// the reconvergence path allocation-free — it sits on the scan hot path
// (TestClassifyConvergedAllocFree).
func classifyConverged(m *machine.Machine, at machine.GoldenPoint, golden *trace.Golden, obj *Objective) Outcome {
	suffix := golden.Serial[at.SerialLen:]
	detects := m.DetectCount() + (golden.Detects - at.Detects)
	corrects := m.CorrectCount() + (golden.Corrects - at.Corrects)
	base := classifyHaltedParts(m.SerialView(), suffix, detects, corrects, golden)
	return obj.apply(base, machine.StatusHalted, machine.ExcNone,
		m.SerialLen()+len(suffix), detects, corrects, golden)
}

// composable reports whether a run matched to golden cycle `at` really
// ends the way the golden remainder does — in a halt. Two limits the
// golden run never met can cut the shifted continuation short: the halt
// would retire at cycle m.Cycles() + (Δt − at.Cycle), which must not lie
// past the timeout budget (else the run is a Timeout), and the output
// would grow to the current length plus the golden remainder, which must
// not exceed the machine's serial cap (else it ends in ExcSerialLimit).
// A match that fails either is not composed; the run simply continues.
func composable(m *machine.Machine, at machine.GoldenPoint, golden *trace.Golden, budget uint64) bool {
	return m.Cycles()+(golden.Cycles-at.Cycle) <= budget &&
		m.SerialLen()+(len(golden.Serial)-at.SerialLen) <= m.MaxSerial()
}

// runConverge finishes an injected experiment for the fork provider in
// one probe loop: the machine advances on the loop detector's backed-off
// schedule, and at every stop two shortcuts are tried, cheapest first.
// The matcher asks whether the state equals the golden run's at ANY
// cycle; if it does (and the remainder is composable) the outcome is
// composed from the golden trace without simulating it — a masked fault
// rejoins at its own cycle, a detected-and-corrected one a correction
// path's worth of cycles late. Otherwise the loop detector asks whether
// the state recurred, which proves a Timeout verdict as soon as the spin
// loop closes instead of simulating the full budget (the objective layer
// masks serial/counter observables for non-halted runs, so proof timing
// is unobservable). Neither shortcut changes any outcome relative to
// rerun: a match implies a golden continuation, and state recurrence
// implies the budget is unreachable.
//
// st counts which shortcut, if any, settled the outcome.
func runConverge(m *machine.Machine, mt *machine.Matcher, golden *trace.Golden, budget uint64, obj *Objective, det *machine.LoopDetector, st *scanTel) Outcome {
	det.Reset()
	for det.RunToProbe(m, budget) {
		if at, ok := mt.Match(); ok && composable(m, at, golden, budget) {
			st.converged(m.Cycles(), at.Cycle)
			return classifyConverged(m, at, golden, obj)
		}
		if det.Probe(m) {
			st.loopProofs.Inc()
			break
		}
	}
	// A machine still running here either exhausted the budget or was
	// proven to loop forever; classify calls both Timeout.
	return classify(m, golden, obj)
}
