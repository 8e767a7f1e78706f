package cluster

import (
	"errors"
	"fmt"
	"time"

	"faultspace/internal/campaign"
	"faultspace/internal/cluster/lease"
	"faultspace/internal/isa"
	"faultspace/internal/machine"
	"faultspace/internal/pruning"
	"faultspace/internal/telemetry"
	"faultspace/internal/trace"
)

// The campaign service's defaults for its hosts: classes per work unit,
// and how long a leased unit may go without a heartbeat or submission
// before it is reassigned.
const (
	DefaultUnitSize = 256
	DefaultLeaseTTL = 10 * time.Second
)

// ErrLeaseTTL rejects a lease TTL below MinLeaseTTL.
var ErrLeaseTTL = errors.New("cluster: lease TTL too short")

// MinLeaseTTL is the shortest lease a service grants and a worker
// accepts. A worker heartbeats every LeaseTTL/3: a ticker of zero
// duration panics and one of a few nanoseconds spins, so the TTL a
// handshake announces is checked at both ends.
const MinLeaseTTL = time.Millisecond

// CheckLeaseTTL returns an ErrLeaseTTL error for a TTL below MinLeaseTTL.
func CheckLeaseTTL(ttl time.Duration) error {
	if ttl < MinLeaseTTL {
		return fmt.Errorf("%w: %v, minimum %v", ErrLeaseTTL, ttl, MinLeaseTTL)
	}
	return nil
}

// WorkerStat is one worker's slice of a cluster Progress event.
type WorkerStat = lease.WorkerStat

// Progress is one event of a distributed campaign's progress stream: the
// regular campaign progress plus cluster-level statistics.
type Progress = lease.Progress

// NewSpec assembles the campaign spec: the complete, self-contained
// campaign description shipped in coordinator handshakes and accepted as
// the body of a service campaign submission. classes is the total
// equivalence-class count of the prepared fault space (a sanity check
// the receiving side re-verifies after rebuilding the campaign), or 0 for
// none announced: a submission is made of the campaign's inputs alone,
// with no golden run behind it. Nothing here simulates. LeaseTTL defaults
// to DefaultLeaseTTL; the service that hosts the campaign stamps the
// class count it built and its own TTL before answering handshakes.
func NewSpec(t campaign.Target, kind pruning.SpaceKind, cfg campaign.Config, maxGoldenCycles, classes uint64) (Spec, error) {
	id, err := t.CampaignIdentity(kind, cfg)
	if err != nil {
		return Spec{}, fmt.Errorf("identity: %w", err)
	}
	code, err := isa.EncodeProgram(t.Code)
	if err != nil {
		return Spec{}, fmt.Errorf("encode program: %w", err)
	}
	factor, slack := cfg.EffectiveTimeout()
	objective := ""
	if cfg.Objective != nil {
		objective = cfg.Objective.Name
	}
	return Spec{
		Proto:           ProtoVersion,
		Identity:        id,
		Name:            t.Name,
		Code:            code,
		Image:           t.Image,
		RAMSize:         uint64(t.Mach.RAMSize),
		MaxSerial:       uint64(t.Mach.MaxSerial),
		TimerPeriod:     t.Mach.TimerPeriod,
		TimerVector:     uint32(t.Mach.TimerVector),
		SpaceKind:       uint8(kind),
		TimeoutFactor:   factor,
		TimeoutSlack:    slack,
		MaxGoldenCycles: maxGoldenCycles,
		Classes:         classes,
		LeaseTTL:        DefaultLeaseTTL,
		Objective:       objective,
		// A fresh trace ID per spec: every campaign's fleet spans correlate
		// under one 128-bit ID. The ID is observability identity only —
		// campaign identity (the hash above) never covers it (invariant 15),
		// so re-running the same campaign archives byte-identical reports
		// under a different trace.
		TraceID: telemetry.NewTraceID(),
	}, nil
}

// BuildCampaign reconstructs a campaign from a spec deterministically:
// it decodes the program, re-records the golden run, re-derives the
// pruned fault space and verifies the class count, when the spec
// announces one (non-zero), and the campaign identity hash. A spec whose
// rebuild diverges (different simulator semantics, skewed or forged spec)
// fails here rather than poisoning results — this is the worker-side half
// of the admission check, and the service's submission validation.
//
// The returned config carries only the outcome-relevant parameters (the
// timeout budget); callers layer their local execution choices (workers,
// strategy) on top, which never changes the identity.
func BuildCampaign(spec Spec) (campaign.Target, *trace.Golden, *pruning.FaultSpace, campaign.Config, error) {
	var cfg campaign.Config
	code, err := isa.DecodeProgram(spec.Code)
	if err != nil {
		return campaign.Target{}, nil, nil, cfg, fmt.Errorf("cluster: spec program: %w", err)
	}
	t := campaign.Target{
		Name:  spec.Name,
		Code:  code,
		Image: append([]byte(nil), spec.Image...),
		Mach: machine.Config{
			RAMSize:     int(spec.RAMSize),
			MaxSerial:   int(spec.MaxSerial),
			TimerPeriod: spec.TimerPeriod,
			TimerVector: spec.TimerVector,
		},
	}
	obj, err := campaign.ObjectiveByName(spec.Objective)
	if err != nil {
		// An unknown objective name must fail loudly: this worker cannot
		// reproduce the campaign's outcomes, so running anyway would poison
		// results (the identity check below would also trip, less clearly).
		return campaign.Target{}, nil, nil, cfg, fmt.Errorf("%w: %v", ErrRejected, err)
	}
	cfg = campaign.Config{
		TimeoutFactor: spec.TimeoutFactor,
		TimeoutSlack:  spec.TimeoutSlack,
		Objective:     obj,
	}
	kind := pruning.SpaceKind(spec.SpaceKind)
	g, fs, err := t.PrepareSpace(kind, spec.MaxGoldenCycles)
	if err != nil {
		return campaign.Target{}, nil, nil, cfg, fmt.Errorf("cluster: rebuild campaign: %w", err)
	}
	if spec.Classes != 0 && uint64(len(fs.Classes)) != spec.Classes {
		return campaign.Target{}, nil, nil, cfg, fmt.Errorf("%w: rebuilt fault space has %d classes, spec announced %d",
			ErrRejected, len(fs.Classes), spec.Classes)
	}
	id, err := t.CampaignIdentity(kind, cfg)
	if err != nil {
		return campaign.Target{}, nil, nil, cfg, fmt.Errorf("cluster: identity: %w", err)
	}
	if id != spec.Identity {
		return campaign.Target{}, nil, nil, cfg, fmt.Errorf("%w: rebuilt campaign identity differs from the spec's", ErrRejected)
	}
	return t, g, fs, cfg, nil
}
