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

// classifyConverged classifies an experiment whose machine state
// reconverged with the golden run at ladder rung r (StateMatches): the
// continuation is a cycle-for-cycle golden replay ending in a normal
// halt, so the final serial output and event counters are the current
// values plus the golden remainder — no further simulation needed. The
// two serial parts are compared in place (classifyHaltedParts), never
// concatenated, keeping the reconvergence path allocation-free — it
// sits on the scan hot path (TestClassifyConvergedAllocFree).
// Serial-flood is no concern: if the composed output exceeded the
// machine's serial cap it necessarily differs from the golden output,
// and both the real run (ExcSerialLimit) and classifyHaltedParts call
// that SDC.
func classifyConverged(m *machine.Machine, l *machine.Ladder, r int, golden *trace.Golden, obj *Objective) Outcome {
	serialLen, gdet, gcor := l.RungAccum(r)
	suffix := golden.Serial[serialLen:]
	detects := m.DetectCount() + (golden.Detects - gdet)
	corrects := m.CorrectCount() + (golden.Corrects - gcor)
	base := classifyHaltedParts(m.SerialView(), suffix, detects, corrects, golden)
	return obj.apply(base, machine.StatusHalted, machine.ExcNone,
		m.SerialLen()+len(suffix), detects, corrects, golden)
}

// runConverge finishes an injected experiment for the fork provider: it
// advances the machine rung by rung, checking for reconvergence with the
// golden state at each rung boundary; once the state matches a rung, the
// outcome is composed from the golden trace without simulating the
// remainder. A run that survives past the last rung — it outlived the
// golden run, so it can only halt abnormally or time out — is driven
// toward the cycle budget under loop detection, which proves most
// Timeout verdicts as soon as the spin loop closes instead of simulating
// the full budget. Loop detection starts early: from the first rung
// whose convergence check fails — most faults that spin forever enter
// their loop well before the golden run's end, and an exact-state
// recurrence is an equally sound infinity proof at any cycle (the
// objective layer masks serial/counter observables for non-halted runs,
// so proof timing is unobservable). Converging experiments never pay a
// single probe; runs that neither converge nor loop pay a geometrically
// thinning number of them (machine.LoopDetector's back-off). Neither
// shortcut changes any outcome relative to rerun: reconvergence implies
// a golden continuation, and state recurrence implies the budget is
// unreachable.
//
// st counts which shortcut, if any, settled the outcome.
func runConverge(m *machine.Machine, l *machine.Ladder, golden *trace.Golden, budget uint64, obj *Objective, det *machine.LoopDetector, st *scanTel) Outcome {
	probing := false
	for r := l.Find(m.Cycles()) + 1; r < l.Rungs(); r++ {
		if probing {
			if det.RunDetectLoop(m, l.RungCycle(r)) {
				st.loopProofs.Inc()
				return classify(m, golden, obj)
			}
			if m.Status() != machine.StatusRunning {
				break
			}
		} else if m.Run(l.RungCycle(r)) != machine.StatusRunning {
			break
		}
		if l.StateMatches(m, r) {
			st.reconverged.Inc()
			return classifyConverged(m, l, r, golden, obj)
		}
		if !probing {
			probing = true
			det.Reset()
		}
	}
	if m.Status() == machine.StatusRunning && m.Cycles() < budget {
		if !probing {
			det.Reset()
		}
		if det.RunDetectLoop(m, budget) {
			st.loopProofs.Inc()
		}
	}
	// A machine still running here either exhausted the budget or was
	// proven to loop forever; classify calls both Timeout.
	return classify(m, golden, obj)
}
