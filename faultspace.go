// Package faultspace is a fault-injection (FI) evaluation toolkit that
// reproduces "Avoiding Pitfalls in Fault-Injection Based Comparison of
// Program Susceptibility to Soft Errors" (Schirmeier, Borchert, Spinczyk;
// DSN 2015).
//
// It provides, end to end:
//
//   - a deterministic fav32 RISC simulator and assembler (the paper's
//     machine model: in-order, one cycle per instruction, fault-immune ROM),
//   - golden-run tracing and def/use fault-space pruning with exact
//     per-class weights (Pitfall 1),
//   - full fault-space scans and sampling campaigns, including the biased
//     class-sampling procedure of Pitfall 2 for demonstration,
//   - the metrics the paper dissects: fault coverage (weighted, unweighted,
//     activated-only) and the proposed comparison metric — extrapolated
//     absolute failure counts with the comparison ratio r (Pitfall 3),
//   - software-based hardware fault-tolerance transformations: SUM+DMR
//     hardening, plus the paper's deliberately bogus DFT/DFT′ dilution
//     transformations for the §IV Gedankenexperiment,
//   - ports of the paper's benchmarks: hi, bin_sem2, sync2 on a small
//     cooperative threading kernel.
//
// The typical pipeline:
//
//	prog, _ := faultspace.AssembleSource("hi", src)
//	scan, _ := faultspace.Scan(prog, faultspace.ScanOptions{})
//	a := faultspace.Analyze(scan)
//	fmt.Println(a.CoverageWeighted, a.FailWeight)
//
// Comparing a hardened variant against its baseline:
//
//	cmp := faultspace.Compare(faultspace.Analyze(base), faultspace.Analyze(hard))
//	if cmp.RatioWeighted < 1 { /* hardening actually helps */ }
package faultspace

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"faultspace/internal/asm"
	"faultspace/internal/campaign"
	"faultspace/internal/checkpoint"
	"faultspace/internal/machine"
	"faultspace/internal/pruning"
	"faultspace/internal/telemetry"
	"faultspace/internal/trace"
)

// Program is an assembled fav32 benchmark binary.
type Program = asm.Program

// ScanResult is the outcome of a full fault-space scan.
type ScanResult = campaign.Result

// Golden is the record of a fault-free reference run.
type Golden = trace.Golden

// FaultSpace is a def/use-pruned fault space.
type FaultSpace = pruning.FaultSpace

// AssembleSource assembles fav32 assembly into a Program. Sources using
// the pld/pst protected-access pseudo instructions must instead be built
// through internal/progs or an explicit hardening variant.
func AssembleSource(name, src string) (*Program, error) {
	return asm.Assemble(name, src)
}

// SpaceKind selects which machine state faults are injected into.
type SpaceKind = pruning.SpaceKind

// Fault-space kinds.
const (
	// SpaceMemory is the paper's primary fault model: transient single-bit
	// flips in main memory.
	SpaceMemory = pruning.SpaceMemory
	// SpaceRegisters is the §VI-B generalization: flips in the CPU
	// register file.
	SpaceRegisters = pruning.SpaceRegisters
	// SpaceSkip is the attack-style instruction-skip model: the
	// instruction at each slot is suppressed (one per-slot coordinate,
	// Bits = 1).
	SpaceSkip = pruning.SpaceSkip
	// SpacePC is the attack-style program-counter model: a single-bit
	// flip in the 32-bit PC at each slot boundary.
	SpacePC = pruning.SpacePC
	// SpaceBurst2 and SpaceBurst4 are multi-bit burst models: k adjacent
	// bits of one RAM byte invert at once (k = 2 and 4).
	SpaceBurst2 = pruning.SpaceBurst2
	SpaceBurst4 = pruning.SpaceBurst4
)

// Strategy selects how scan experiments re-reach their injection slot.
type Strategy = campaign.Strategy

// Experiment-execution strategies. Both produce byte-identical scan
// results (the executor-equivalence invariant); they differ only in
// speed and memory.
const (
	// StrategyFork batches classes along golden-run snapshot boundaries in
	// injection order and advances a per-worker cursor machine
	// monotonically through the golden run, forking a cheap
	// dirty-page-delta child at each injection cycle — the golden prefix
	// is simulated once per batch instead of once per experiment, and the
	// faulty suffix ends early on reconvergence or a loop proof. Default;
	// see DESIGN.md §4c.
	StrategyFork = campaign.StrategyFork
	// StrategyRerun re-executes every experiment from the reset state and
	// runs it out — the brute-force reference, kept for validation and
	// ablation.
	StrategyRerun = campaign.StrategyRerun
)

// Progress is one event of a scan's progress stream; see ScanOptions.
type Progress = campaign.Progress

// Telemetry is a metrics registry: named atomic counters, gauges and
// duration histograms, plus the campaign's span timeline once
// EnableSpans attached one. Attach one via ScanOptions.Telemetry (or
// ServeOptions/JoinOptions) to observe a campaign; a nil registry
// disables all instrumentation at zero cost. Telemetry never changes
// scan results (DESIGN.md invariant 10).
type Telemetry = telemetry.Registry

// NewTelemetry creates an empty telemetry registry.
func NewTelemetry() *Telemetry { return telemetry.New() }

// TraceID is a 128-bit campaign trace identifier: minted at submission,
// propagated through the cluster wire protocol, stamped on every
// exported timeline. The zero TraceID means "tracing off". Trace IDs
// are identification, not configuration — they are excluded from the
// campaign identity hash (DESIGN.md invariant 15).
type TraceID = telemetry.TraceID

// NewTraceID mints a random trace ID.
func NewTraceID() TraceID { return telemetry.NewTraceID() }

// Span is one completed timed operation in a campaign timeline; a span
// of duration zero is a mark, a point event.
type Span = telemetry.Span

// SpanRecorder is a bounded, concurrency-safe store of completed spans.
// Attach one to a Telemetry registry via Telemetry.EnableSpans to trace
// a scan; a nil recorder disables span tracing at zero cost.
type SpanRecorder = telemetry.SpanRecorder

// WriteChromeTrace writes a span timeline as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
func WriteChromeTrace(w io.Writer, trace TraceID, spans []Span) error {
	return telemetry.WriteChromeTrace(w, trace, spans)
}

// WritePrometheus renders a telemetry snapshot in the Prometheus text
// exposition format (version 0.0.4), with the given constant labels on
// every series (nil for none). The coordinator, service and favscan
// -metrics listener all serve this under /metrics.
func WritePrometheus(w io.Writer, snap telemetry.Snapshot, labels map[string]string) error {
	return telemetry.WritePrometheus(w, snap, labels)
}

// RunManifest is the machine-readable record of one campaign run:
// campaign identity and configuration, wall/CPU timing, the final
// counter snapshot and, with -trace, the span timeline. favscan
// -telemetry writes one per run.
type RunManifest = telemetry.Manifest

// ErrInterrupted is returned by Scan when the campaign was stopped by
// cancelling ScanOptions.Context. All completed experiments have been
// flushed to the checkpoint (if one is configured); rerun with Resume to
// continue.
var ErrInterrupted = campaign.ErrInterrupted

// ErrPartialResult is returned by SaveScan and Analyze for the partial
// result of an interrupted scan (ScanResult.Pending > 0): its unrun
// classes have no outcome and would read as "No Effect".
var ErrPartialResult = campaign.ErrPartialResult

// ScanOptions parameterizes Scan.
type ScanOptions struct {
	// TimeoutFactor bounds experiment runtime as a multiple of the golden
	// runtime (default 4).
	TimeoutFactor float64
	// Workers is the number of parallel experiment executors (default:
	// GOMAXPROCS).
	Workers int
	// Strategy selects the execution strategy (default StrategyFork).
	// Strategies are outcome-invariant: they never change the scan result.
	Strategy Strategy
	// Predecode enables the simulator's pre-decoded dispatch stream: the
	// program is lowered once per worker machine into a dense instruction
	// stream executed by a tight chunked loop. Outcome-invariant — the
	// fast path is proven Step-equivalent — so like Strategy it never
	// changes scan results and is excluded from the campaign identity.
	Predecode bool
	// MaxGoldenCycles bounds the golden run (default 1<<22).
	MaxGoldenCycles uint64
	// Space selects the fault space (default SpaceMemory).
	Space SpaceKind
	// Objective names an attacker-objective predicate ("" = none; see
	// ObjectiveNames for the builtins). Outcomes satisfying the objective
	// carry the attack flag; unlike the execution knobs this CHANGES the
	// recorded outcomes, so the name is part of the campaign identity.
	Objective string

	// Checkpoint, when non-empty, streams every completed experiment into
	// the crash-safe checkpoint file at this path (see internal/checkpoint
	// for the format). The file is keyed by the campaign identity hash, so
	// it can never be resumed against a different program, fault space or
	// outcome-relevant configuration.
	Checkpoint string
	// Resume continues a previous campaign from Checkpoint: completed
	// classes are loaded and skipped, only the remainder runs. If the
	// checkpoint file does not exist yet, the scan starts fresh — so
	// passing Checkpoint+Resume unconditionally gives at-least-once
	// crash-restart semantics. Without Resume, Scan refuses to overwrite
	// an existing checkpoint.
	Resume bool
	// OnProgress, when non-nil, receives progress events: one initial,
	// throttled intermediate ones (see ProgressInterval), one final.
	OnProgress func(Progress)
	// ProgressInterval throttles intermediate progress events
	// (default 1s; negative = one event per experiment).
	ProgressInterval time.Duration
	// Context, when non-nil, stops the scan gracefully once cancelled:
	// in-flight experiments finish and are checkpointed, then Scan
	// returns the partial result with ErrInterrupted. A field, not a
	// parameter: bench/ compiles against Scan's signature.
	Context context.Context
	// Telemetry, when non-nil, collects campaign metrics: experiment
	// counts, per-outcome timing histograms, strategy shortcut counters
	// and checkpoint I/O. Outcome-invariant (invariant 10) and excluded
	// from the campaign identity hash, exactly like Strategy and Workers.
	Telemetry *Telemetry
}

// DefaultMaxGoldenCycles bounds golden runs when ScanOptions leaves
// MaxGoldenCycles zero.
const DefaultMaxGoldenCycles = 1 << 22

// resolve derives the fault-space kind and the engine configuration. An
// unknown kind is rejected instead of silently defaulted to SpaceMemory:
// a typo'd kind must never quietly scan the wrong space.
func (o ScanOptions) resolve() (SpaceKind, campaign.Config, error) {
	kind := o.Space
	if kind == 0 {
		kind = SpaceMemory
	}
	if !kind.Valid() {
		return 0, campaign.Config{}, fmt.Errorf("faultspace: unknown fault-space kind %d", o.Space)
	}
	obj, err := campaign.ObjectiveByName(o.Objective)
	if err != nil {
		return 0, campaign.Config{}, fmt.Errorf("faultspace: %w", err)
	}
	return kind, campaign.Config{
		TimeoutFactor:    o.TimeoutFactor,
		Workers:          o.Workers,
		Strategy:         o.Strategy,
		Predecode:        o.Predecode,
		Objective:        obj,
		OnProgress:       o.OnProgress,
		ProgressInterval: o.ProgressInterval,
		Context:          o.Context,
		Telemetry:        o.Telemetry,
		// Span tracing rides the registry: EnableSpans attaches a recorder,
		// a bare registry (or none) leaves cfg.Spans nil and the scan pays
		// nothing. Nil-safe through the whole chain.
		Spans: o.Telemetry.SpanRecorder(),
	}, nil
}

func (o ScanOptions) maxGolden() uint64 {
	if o.MaxGoldenCycles == 0 {
		return DefaultMaxGoldenCycles
	}
	return o.MaxGoldenCycles
}

// prepared is a campaign ready to run: what Scan, Sample and ServeScan
// all derive from a program and its options.
type prepared struct {
	target campaign.Target
	golden *Golden
	space  *FaultSpace
	cfg    campaign.Config
}

// prepare resolves the options, records the golden run and prunes the
// fault space. Its errors carry the package prefix.
func prepare(p *Program, opts ScanOptions) (prepared, error) {
	kind, cfg, err := opts.resolve()
	if err != nil {
		return prepared{}, err
	}
	t := Target(p)
	golden, fs, err := t.PrepareSpace(kind, opts.maxGolden())
	if err != nil {
		return prepared{}, fmt.Errorf("faultspace: %w", err)
	}
	return prepared{target: t, golden: golden, space: fs, cfg: cfg}, nil
}

// wrapScanErr prefixes a scan error; an interrupted scan keeps its
// partial result.
func wrapScanErr(res *ScanResult, err error) (*ScanResult, error) {
	if err == nil {
		return res, nil
	}
	if !errors.Is(err, campaign.ErrInterrupted) {
		res = nil
	}
	return res, fmt.Errorf("faultspace: %w", err)
}

// ObjectiveNames lists the builtin attacker-objective names accepted by
// ScanOptions.Objective, sorted.
func ObjectiveNames() []string { return campaign.ObjectiveNames() }

// MachineConfig derives the simulator configuration of a program.
func MachineConfig(p *Program) machine.Config {
	return machine.Config{
		RAMSize:     p.RAMSize,
		TimerPeriod: p.TimerPeriod,
		TimerVector: p.TimerVector,
	}
}

// Target builds the campaign target for a program.
func Target(p *Program) campaign.Target {
	return campaign.Target{
		Name:  p.Name,
		Code:  p.Code,
		Image: p.Image,
		Mach:  MachineConfig(p),
	}
}

// Scan records the golden run of the program, prunes its fault space and
// performs a complete fault-space scan: one experiment per def/use
// equivalence class. With ScanOptions.Checkpoint set, completed
// experiments stream into a crash-safe checkpoint file; with Resume, a
// previous campaign's checkpoint is continued instead of restarted.
// Cancelling ScanOptions.Context stops the scan gracefully: Scan returns
// the partial result with ErrInterrupted.
func Scan(p *Program, opts ScanOptions) (*ScanResult, error) {
	c, err := prepare(p, opts)
	if err != nil {
		return nil, err
	}
	if opts.Checkpoint == "" {
		return wrapScanErr(campaign.ResumeScan(c.target, c.golden, c.space, c.cfg, nil))
	}
	// Stream completed experiments into (and, when resuming, restore them
	// from) the checkpoint file.
	ck, prior, err := opts.openCheckpoint(c.target, c.space, c.cfg)
	if err != nil {
		return nil, err
	}
	c.cfg.OnResult, c.cfg.Context = ck.record, ck.ctx
	return ck.close(campaign.ResumeScan(c.target, c.golden, c.space, c.cfg, prior))
}

// scanCheckpoint is a scan's open checkpoint file: record is the scan's
// OnResult and ctx its Context — a child of the caller's, which the
// writer's first error cancels as well, so that a campaign never runs on
// past a checkpoint that can no longer record it. A cancelled parent
// cancels ctx before its cancel returns: an embedder that cancels inside
// OnProgress has the delivering worker see it at its next poll.
type scanCheckpoint struct {
	w      *checkpoint.Writer
	ctx    context.Context
	cancel context.CancelCauseFunc
}

func (ck *scanCheckpoint) record(ci int, o campaign.Outcome) {
	if err := ck.w.Append(ci, uint8(o)); err != nil {
		ck.cancel(err)
	}
}

// close ends the scan that returned (res, scanErr). Closing the writer
// makes every delivered record durable — including on the interrupt path,
// which is what makes a SIGINT-killed campaign resumable without loss —
// so a checkpoint error outranks the interrupt: what it stopped, or kept
// from being saved, is a scan with no result.
func (ck *scanCheckpoint) close(res *ScanResult, scanErr error) (*ScanResult, error) {
	ck.cancel(nil)
	if cerr := ck.w.Close(); cerr != nil && (scanErr == nil || errors.Is(scanErr, campaign.ErrInterrupted)) {
		return nil, fmt.Errorf("faultspace: %w", cerr)
	}
	return wrapScanErr(res, scanErr)
}

// openCheckpoint starts the campaign's checkpoint file, bound to its
// identity hash: a fresh one, or with Resume the existing one, whose
// completed outcomes are returned.
func (o ScanOptions) openCheckpoint(t campaign.Target, fs *FaultSpace, cfg campaign.Config) (*scanCheckpoint, map[int]campaign.Outcome, error) {
	id, err := t.CampaignIdentity(fs.Kind, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("faultspace: %w", err)
	}
	hdr := checkpoint.Header{Version: checkpoint.Version, Identity: id, Classes: uint64(len(fs.Classes))}
	var w *checkpoint.Writer
	var raw map[int]uint8
	if o.Resume {
		w, raw, err = checkpoint.Open(o.Checkpoint, hdr)
		if err != nil {
			return nil, nil, fmt.Errorf("faultspace: %w", err)
		}
	} else if w, err = checkpoint.Create(o.Checkpoint, hdr); err != nil {
		return nil, nil, fmt.Errorf("faultspace: %w (resume to continue an existing checkpoint)", err)
	}
	// The scan or the campaign host checks the restored outcomes
	// (campaign.Remaining) before it runs anything.
	prior := make(map[int]campaign.Outcome, len(raw))
	for ci, out := range raw {
		prior[ci] = campaign.Outcome(out)
	}
	w.Instrument(o.Telemetry)
	ctx, cancel := context.WithCancelCause(cmp.Or(o.Context, context.Background()))
	return &scanCheckpoint{w: w, ctx: ctx, cancel: cancel}, prior, nil
}

// CampaignIdentity returns the campaign identity hash Scan would use for
// this program and options — the key binding checkpoints and archives to
// their campaign (see campaign.Target.CampaignIdentity).
func CampaignIdentity(p *Program, opts ScanOptions) ([32]byte, error) {
	kind, cfg, err := opts.resolve()
	if err != nil {
		return [32]byte{}, err
	}
	return Target(p).CampaignIdentity(kind, cfg)
}

// SampleOptions parameterizes Sample.
type SampleOptions struct {
	ScanOptions
	// N is the number of samples to draw (required).
	N int
	// Seed makes the campaign reproducible.
	Seed int64
	// Biased draws equivalence classes uniformly instead of raw fault-space
	// coordinates — the statistically wrong procedure of Pitfall 2.
	Biased bool
	// Effective samples only the reduced population w′ (excluding
	// known-No-Effect coordinates, §V-C Corollary 1).
	Effective bool
}

// Sample runs a sampling campaign over the program's fault space.
// Cancelling ScanOptions.Context stops it with ErrInterrupted and no
// result.
func Sample(p *Program, opts SampleOptions) (*campaign.SampleResult, error) {
	mode := campaign.SampleRaw
	switch {
	case opts.Biased && opts.Effective:
		return nil, fmt.Errorf("faultspace: Biased and Effective sampling are mutually exclusive")
	case opts.Biased:
		mode = campaign.SampleClasses
	case opts.Effective:
		mode = campaign.SampleEffective
	}
	c, err := prepare(p, opts.ScanOptions)
	if err != nil {
		return nil, err
	}
	sr, err := campaign.SampleScan(c.target, c.golden, c.space, c.cfg, mode, opts.N, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("faultspace: %w", err)
	}
	return sr, nil
}
