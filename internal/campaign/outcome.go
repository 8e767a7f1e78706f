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

// compose classifies a run from the state m is in and how it continues
// from there (rem): it ends in rem's status and exception, with its own
// output and event counts so far plus rem's. It is the one status →
// outcome mapping, and it evaluates the campaign's attacker objective
// (nil = none) on the way, so every way a run can end is classified and
// flagged alike:
//   - a run-out, whose remainder is empty (ended);
//   - a golden match, whose remainder is the golden run's from the
//     matched cycle (goldenRemainder);
//   - a trajectory-memo hit, whose remainder is an earlier faulty run's
//     from the same state at the same cycle (machine.TrajectoryMemo).
//
// The two serial parts are compared in place (classifyHaltedParts),
// never concatenated, keeping the composed paths allocation-free — they
// sit on the scan hot path (TestClassifyConvergedAllocFree).
func compose(m *machine.Machine, rem machine.Remainder, golden *trace.Golden, obj *Objective) Outcome {
	detects, corrects := m.DetectCount()+rem.Detects, m.CorrectCount()+rem.Corrects
	var base Outcome
	switch rem.Status {
	case machine.StatusRunning:
		base = OutcomeTimeout
	case machine.StatusAborted:
		base = OutcomeDetectedUnrecoverable
	case machine.StatusExcepted:
		switch rem.Exc {
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
		base = classifyHaltedParts(m.SerialView(), rem.Serial, detects, corrects, golden)
	default:
		// Unreachable with a correct machine; classify conservatively.
		base = OutcomeSDC
	}
	return obj.apply(base, rem.Status, rem.Exc, m.SerialLen()+len(rem.Serial), detects, corrects, golden)
}

// ended is the empty remainder of a run that stops where m is: halted,
// excepted, aborted, or still running at the cycle budget or in a proven
// loop (a Timeout either way).
func ended(m *machine.Machine) machine.Remainder {
	return machine.Remainder{Status: m.Status(), Exc: m.Exception()}
}

// classify maps a finished experiment machine to an outcome.
func classify(m *machine.Machine, golden *trace.Golden, obj *Objective) Outcome {
	return compose(m, ended(m), golden, obj)
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

// goldenRemainder is the remainder of a run whose machine state equals
// the golden run's at the matched cycle `at` (machine.Matcher): the
// continuation is the golden run's from there, cycle for cycle, ending in
// a normal halt, with the golden output and events still to come. The
// caller has checked that it fits the cycle budget and the serial cap
// (composable); within them the composed run is exactly the one a run-out
// would produce.
func goldenRemainder(at machine.GoldenPoint, golden *trace.Golden) machine.Remainder {
	return machine.Remainder{
		Status:   machine.StatusHalted,
		Serial:   golden.Serial[at.SerialLen:],
		Detects:  golden.Detects - at.Detects,
		Corrects: golden.Corrects - at.Corrects,
	}
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

// memoGrid is the cycle spacing of trajectory-memo probes: a run is
// looked up, and recorded, at the absolute cycles that are multiples of
// it, so that two runs passing through one state meet at the same cycle.
// A policy constant, not an outcome input: a hit is confirmed exactly and
// composed exactly, and a run that meets no earlier one runs out. Denser
// grids find a run's earlier trajectory sooner but pay a state hash and,
// on a miss, a RAM copy at every grid cycle. On the benchmark's
// fleet_cold list at one worker, a 64-cycle grid saved 1 % more suffix
// cycles than 128 for 78 % more probes, and a 256-cycle grid 10 % fewer
// for 32 % fewer probes.
const memoGrid = 128

// noGrid is the grid cycle of a run whose memo probes have not begun.
const noGrid = ^uint64(0)

// runConverge finishes an injected experiment for the fork provider in
// one probe loop, trying three shortcuts at the stops it makes:
//   - At the loop detector's backed-off schedule, the matcher asks
//     whether the state equals the golden run's at ANY cycle; if it does
//     (and the remainder is composable) the outcome is composed from the
//     golden trace without simulating it — a masked fault rejoins at its
//     own cycle, a detected-and-corrected one a correction path's worth of
//     cycles late.
//   - At the same stops, the loop detector asks whether the state
//     recurred, which proves a Timeout verdict as soon as the spin loop
//     closes instead of simulating the full budget (the objective layer
//     masks serial/counter observables for non-halted runs, so proof
//     timing is unobservable).
//   - At the absolute cycles of the memo grid, once the run has survived
//     its first golden probe, the trajectory memo asks whether an earlier
//     run of the session was in the same state at the same cycle; if one
//     was, the outcome is composed from that run's remainder. Runs that
//     rejoin the golden run at their first probe — nearly all of a
//     hardened campaign's — never pay for a memo probe.
//
// None of them changes any outcome relative to rerun: a match implies a
// golden continuation, a hit the earlier run's continuation, and state
// recurrence implies the budget is unreachable. However the run ends, its
// memo states are closed with the remainder it ended by.
//
// st counts which shortcut, if any, settled the outcome.
func runConverge(m *machine.Machine, mt *machine.Matcher, memo *machine.TrajectoryMemo, golden *trace.Golden, budget uint64, obj *Objective, det *machine.LoopDetector, st *scanTel) Outcome {
	det.Reset()
	grid := noGrid
	rem, settled := machine.Remainder{}, false
	for !settled {
		due := det.Due(m)
		stop := min(due, grid, budget)
		if m.Run(stop) != machine.StatusRunning || stop == budget {
			break
		}
		if stop == due {
			if at, ok := mt.Match(); ok && composable(m, at, golden, budget) {
				st.converged(m.Cycles(), at.Cycle)
				rem, settled = goldenRemainder(at, golden), true
				break
			}
			if det.Probe(m) {
				st.loopProofs.Inc()
				break
			}
			if grid == noGrid {
				grid = (m.Cycles()/memoGrid + 1) * memoGrid
			}
		}
		if stop == grid {
			grid += memoGrid
			rem, settled = memo.Recall(mt)
		}
	}
	// A machine still running here without a remainder either exhausted
	// the budget or was proven to loop forever; compose calls both
	// Timeout.
	if !settled {
		rem = ended(m)
	}
	o := compose(m, rem, golden, obj)
	memo.Close(m, rem)
	return o
}
