// Package cluster distributes a fault-injection campaign across machines:
// a coordinator shards the pruned equivalence classes of a campaign into
// leased work units and serves them over HTTP; workers pull leases, run
// the experiments through the regular campaign machinery and stream the
// per-class outcomes back.
//
// The design leans entirely on two invariants established earlier:
// experiments are deterministic and independent (so any worker computes
// the same outcome for a class), and execution placement — like strategy
// and worker count — is excluded from the campaign identity hash. The
// identity hash doubles as the admission check: every request after the
// handshake carries it, and a worker whose program image, fault-space
// kind or timeout budget differs is rejected with HTTP 409.
//
// # Wire protocol
//
// Every message body is one CRC-guarded frame in the checkpoint framing
// (kind, u32 length, u32 CRC32-IEEE, payload; see internal/checkpoint).
// All integers are little-endian; variable-length integers use Go's
// uvarint encoding. Endpoints:
//
//	POST /v1/handshake  → 'S' spec: everything a worker needs to rebuild
//	                      the campaign (program, machine config, fault
//	                      space kind, timeout budget, identity hash);
//	                      ?worker=<id> joins the worker from here on
//	POST /v1/lease      'L' request → 'W' work unit (or wait/done/shutdown)
//	POST /v1/submit     'U' submission → 200 (idempotent, duplicate-safe)
//	POST /v1/heartbeat  'B' heartbeat → 200 (extends lease deadlines)
//	POST /v1/leave      'L' request → 200 (worker exit notice)
//	GET  /v1/status     JSON progress snapshot (human/monitoring aid)
//
// Decoders never panic on malformed input — the FuzzWorkUnitDecode fuzz
// target pins that down, mirroring FuzzCheckpointDecode.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"faultspace/internal/checkpoint"
	"faultspace/internal/telemetry"
)

// ProtoVersion is the wire-protocol version spoken by this package.
// Version 2 appended the attacker-objective name to the handshake spec;
// version-1 peers reject it in JoinCampaign, so a mixed fleet can never
// silently record objective-less outcomes for an objective campaign.
// Version 3 appended the campaign trace ID to the spec and a span list
// to submissions (fleet-wide distributed tracing); as before, the whole
// fleet upgrades together — older peers are rejected at admission.
const ProtoVersion = 3

// Frame kinds of the cluster wire protocol.
const (
	msgSpec      = 'S'
	msgLease     = 'L'
	msgWorkUnit  = 'W'
	msgSubmit    = 'U'
	msgHeartbeat = 'B'
)

// maxUnitClasses bounds the class count a single work unit or submission
// may carry — a sanity limit for the decoders, far above any real unit.
const maxUnitClasses = 1 << 20

// maxSubmitSpans bounds the span count one submission may carry — the
// worker-side recorder holds at most DefaultSpanCapacity spans between
// submissions, so this is generous.
const maxSubmitSpans = 1 << 16

// ErrWire marks a malformed cluster protocol message.
var ErrWire = errors.New("cluster: malformed message")

// Spec is the handshake payload: the complete campaign description. A
// worker rebuilds the target and fault space from it deterministically,
// recomputes the campaign identity and refuses to proceed on mismatch.
type Spec struct {
	Proto    uint32
	Identity [32]byte
	Name     string
	Code     []byte // isa.EncodeProgram image (ROM, fault-immune)
	Image    []byte // initial RAM contents
	// Machine configuration (see machine.Config).
	RAMSize     uint64
	MaxSerial   uint64
	TimerPeriod uint64
	TimerVector uint32
	// Campaign parameters.
	SpaceKind       uint8
	TimeoutFactor   float64
	TimeoutSlack    uint64
	MaxGoldenCycles uint64
	Classes         uint64 // total equivalence-class count (sanity check)
	LeaseTTL        time.Duration
	// Objective is the attacker-objective name ("" = none), resolved by
	// the worker via campaign.ObjectiveByName. Proto 2+.
	Objective string
	// TraceID is the campaign's 128-bit trace identifier, minted at
	// submission time; the zero value disables span tracing fleet-wide.
	// Identification only — excluded from the campaign identity hash
	// (DESIGN.md invariant 15). Proto 3+.
	TraceID telemetry.TraceID
}

// Work-unit statuses of a lease response.
const (
	// UnitGranted carries a leased work unit.
	UnitGranted uint8 = iota
	// UnitWait means no unit is available right now (all leased); the
	// worker should ask again, held (?wait=, hold.go).
	UnitWait
	// UnitDone means the campaign is complete; the worker may exit.
	UnitDone
	// UnitShutdown means the coordinator is stopping (interrupt); the
	// worker should exit without waiting for completion.
	UnitShutdown
)

// WorkUnit is one leased shard of the campaign: a set of equivalence
// classes to run. Classes are strictly ascending.
type WorkUnit struct {
	Status  uint8
	ID      uint64
	Token   uint64 // lease token; stale tokens are still merge-safe
	Classes []int
}

// LeaseRequest asks the coordinator for a work unit. The same payload
// shape serves the /v1/leave exit notice.
type LeaseRequest struct {
	Identity [32]byte
	WorkerID string
}

// Submission streams the outcomes of one completed work unit back.
// Entries are strictly ascending by class. Submissions are idempotent:
// outcomes are deterministic, so merging a duplicate (or a stale-lease
// re-execution) is a no-op.
type Submission struct {
	Identity [32]byte
	WorkerID string
	UnitID   uint64
	Token    uint64
	Entries  []checkpoint.Entry
	// Spans are the worker-side trace spans accumulated since the last
	// submission (empty when tracing is off). They ride the result path
	// so span shipping needs no extra endpoint; the coordinator stamps
	// each with the submitting worker's ID as scope, so the Scope field
	// is not encoded on the wire. Proto 3+.
	Spans []telemetry.Span
}

// Heartbeat extends the lease deadlines of the listed units.
type Heartbeat struct {
	Identity [32]byte
	WorkerID string
	Units    []uint64
}

// --- encoding ------------------------------------------------------------

func appendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }
func appendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// EncodeSpec encodes a handshake spec as one wire frame.
func EncodeSpec(s Spec) []byte {
	p := make([]byte, 0, 64+len(s.Code)+len(s.Image))
	p = appendU32(p, s.Proto)
	p = append(p, s.Identity[:]...)
	p = appendString(p, s.Name)
	p = appendBytes(p, s.Code)
	p = appendBytes(p, s.Image)
	p = appendU64(p, s.RAMSize)
	p = appendU64(p, s.MaxSerial)
	p = appendU64(p, s.TimerPeriod)
	p = appendU32(p, s.TimerVector)
	p = append(p, s.SpaceKind)
	p = appendU64(p, math.Float64bits(s.TimeoutFactor))
	p = appendU64(p, s.TimeoutSlack)
	p = appendU64(p, s.MaxGoldenCycles)
	p = appendU64(p, s.Classes)
	p = appendU64(p, uint64(s.LeaseTTL))
	p = appendString(p, s.Objective)
	p = append(p, s.TraceID[:]...)
	return checkpoint.AppendFrame(nil, msgSpec, p)
}

// EncodeWorkUnit encodes a lease response as one wire frame. Classes must
// be strictly ascending (they are delta-encoded).
func EncodeWorkUnit(u WorkUnit) []byte {
	p := make([]byte, 0, 16+2*len(u.Classes))
	p = append(p, u.Status)
	p = appendU64(p, u.ID)
	p = appendU64(p, u.Token)
	p = binary.AppendUvarint(p, uint64(len(u.Classes)))
	prev := -1
	for _, ci := range u.Classes {
		p = binary.AppendUvarint(p, uint64(ci-prev))
		prev = ci
	}
	return checkpoint.AppendFrame(nil, msgWorkUnit, p)
}

// EncodeLeaseRequest encodes a lease request (or leave notice) frame.
func EncodeLeaseRequest(r LeaseRequest) []byte {
	p := make([]byte, 0, 40+len(r.WorkerID))
	p = append(p, r.Identity[:]...)
	p = appendString(p, r.WorkerID)
	return checkpoint.AppendFrame(nil, msgLease, p)
}

// EncodeSubmission encodes a result submission frame. Entries must be
// strictly ascending by class.
func EncodeSubmission(s Submission) []byte {
	p := make([]byte, 0, 64+3*len(s.Entries))
	p = append(p, s.Identity[:]...)
	p = appendString(p, s.WorkerID)
	p = appendU64(p, s.UnitID)
	p = appendU64(p, s.Token)
	p = binary.AppendUvarint(p, uint64(len(s.Entries)))
	prev := -1
	for _, e := range s.Entries {
		p = binary.AppendUvarint(p, uint64(e.Class-prev))
		p = append(p, e.Outcome)
		prev = e.Class
	}
	p = binary.AppendUvarint(p, uint64(len(s.Spans)))
	for _, sp := range s.Spans {
		p = appendString(p, sp.Name)
		p = appendString(p, sp.Detail)
		p = appendU64(p, uint64(sp.Start.UnixNano()))
		p = appendU64(p, uint64(sp.Dur.Nanoseconds()))
	}
	return checkpoint.AppendFrame(nil, msgSubmit, p)
}

// EncodeHeartbeat encodes a heartbeat frame.
func EncodeHeartbeat(h Heartbeat) []byte {
	p := make([]byte, 0, 48+8*len(h.Units))
	p = append(p, h.Identity[:]...)
	p = appendString(p, h.WorkerID)
	p = binary.AppendUvarint(p, uint64(len(h.Units)))
	for _, id := range h.Units {
		p = binary.AppendUvarint(p, id)
	}
	return checkpoint.AppendFrame(nil, msgHeartbeat, p)
}

// --- decoding ------------------------------------------------------------

// reader is a bounds-checked little-endian payload reader. All methods
// are no-ops after the first error, so decoders can parse linearly and
// check the error once.
type reader struct {
	data []byte
	off  int
	err  error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d", ErrWire, what, r.off)
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.data) {
		r.fail("payload cut")
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

func (r *reader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.data)-r.off) {
		r.fail("length prefix exceeds payload")
		return nil
	}
	return r.take(int(n))
}

func (r *reader) str() string { return string(r.bytes()) }

func (r *reader) identity() (id [32]byte) {
	copy(id[:], r.take(32))
	return id
}

// finish reports the first decode error, or a trailing-garbage error if
// the payload was not fully consumed.
func (r *reader) finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.data) {
		return fmt.Errorf("%w: %d trailing bytes", ErrWire, len(r.data)-r.off)
	}
	return nil
}

// unframe validates the outer CRC frame and returns the payload of the
// single expected message frame.
func unframe(data []byte, wantKind byte) ([]byte, error) {
	kind, payload, next, err := checkpoint.ReadFrame(data, 0)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrWire, err)
	}
	if kind != wantKind {
		return nil, fmt.Errorf("%w: frame kind %q, want %q", ErrWire, kind, wantKind)
	}
	if next != len(data) {
		return nil, fmt.Errorf("%w: %d bytes after frame", ErrWire, len(data)-next)
	}
	return payload, nil
}

// DecodeSpec parses a handshake spec frame. It never panics.
func DecodeSpec(data []byte) (Spec, error) {
	payload, err := unframe(data, msgSpec)
	if err != nil {
		return Spec{}, err
	}
	r := &reader{data: payload}
	var s Spec
	s.Proto = r.u32()
	s.Identity = r.identity()
	s.Name = r.str()
	s.Code = append([]byte(nil), r.bytes()...)
	s.Image = append([]byte(nil), r.bytes()...)
	s.RAMSize = r.u64()
	s.MaxSerial = r.u64()
	s.TimerPeriod = r.u64()
	s.TimerVector = r.u32()
	s.SpaceKind = r.u8()
	s.TimeoutFactor = math.Float64frombits(r.u64())
	s.TimeoutSlack = r.u64()
	s.MaxGoldenCycles = r.u64()
	s.Classes = r.u64()
	s.LeaseTTL = time.Duration(r.u64())
	s.Objective = r.str()
	if s.Proto >= 3 {
		// Proto-2 frames end at the objective; decoding them cleanly lets
		// JoinCampaign report the version mismatch instead of "payload cut".
		copy(s.TraceID[:], r.take(16))
	}
	if err := r.finish(); err != nil {
		return Spec{}, err
	}
	if s.LeaseTTL <= 0 {
		return Spec{}, fmt.Errorf("%w: non-positive lease TTL", ErrWire)
	}
	return s, nil
}

// DecodeWorkUnit parses a lease response frame. It never panics: mutated
// or truncated frames error out (the FuzzWorkUnitDecode contract).
func DecodeWorkUnit(data []byte) (WorkUnit, error) {
	payload, err := unframe(data, msgWorkUnit)
	if err != nil {
		return WorkUnit{}, err
	}
	r := &reader{data: payload}
	var u WorkUnit
	u.Status = r.u8()
	u.ID = r.u64()
	u.Token = r.u64()
	n := r.uvarint()
	if r.err == nil && n > maxUnitClasses {
		return WorkUnit{}, fmt.Errorf("%w: unit of %d classes exceeds limit", ErrWire, n)
	}
	prev := -1
	for i := uint64(0); i < n && r.err == nil; i++ {
		d := r.uvarint()
		if r.err != nil {
			break
		}
		if d == 0 || d > maxClassIndex || prev > maxClassIndex-int(d) {
			return WorkUnit{}, fmt.Errorf("%w: class delta %d breaks ascending order", ErrWire, d)
		}
		prev += int(d)
		u.Classes = append(u.Classes, prev)
	}
	if err := r.finish(); err != nil {
		return WorkUnit{}, err
	}
	if u.Status > UnitShutdown {
		return WorkUnit{}, fmt.Errorf("%w: unknown unit status %d", ErrWire, u.Status)
	}
	return u, nil
}

// maxClassIndex bounds decoded class indices so delta accumulation cannot
// overflow int on any platform.
const maxClassIndex = 1 << 40

// DecodeLeaseRequest parses a lease request (or leave notice) frame.
func DecodeLeaseRequest(data []byte) (LeaseRequest, error) {
	payload, err := unframe(data, msgLease)
	if err != nil {
		return LeaseRequest{}, err
	}
	r := &reader{data: payload}
	var q LeaseRequest
	q.Identity = r.identity()
	q.WorkerID = r.str()
	if err := r.finish(); err != nil {
		return LeaseRequest{}, err
	}
	if q.WorkerID == "" {
		return LeaseRequest{}, fmt.Errorf("%w: empty worker id", ErrWire)
	}
	return q, nil
}

// DecodeSubmission parses a result submission frame.
func DecodeSubmission(data []byte) (Submission, error) {
	payload, err := unframe(data, msgSubmit)
	if err != nil {
		return Submission{}, err
	}
	r := &reader{data: payload}
	var s Submission
	s.Identity = r.identity()
	s.WorkerID = r.str()
	s.UnitID = r.u64()
	s.Token = r.u64()
	n := r.uvarint()
	if r.err == nil && n > maxUnitClasses {
		return Submission{}, fmt.Errorf("%w: submission of %d entries exceeds limit", ErrWire, n)
	}
	prev := -1
	for i := uint64(0); i < n && r.err == nil; i++ {
		d := r.uvarint()
		o := r.u8()
		if r.err != nil {
			break
		}
		if d == 0 || d > maxClassIndex || prev > maxClassIndex-int(d) {
			return Submission{}, fmt.Errorf("%w: class delta %d breaks ascending order", ErrWire, d)
		}
		prev += int(d)
		s.Entries = append(s.Entries, checkpoint.Entry{Class: prev, Outcome: o})
	}
	ns := r.uvarint()
	if r.err == nil && ns > maxSubmitSpans {
		return Submission{}, fmt.Errorf("%w: submission of %d spans exceeds limit", ErrWire, ns)
	}
	for i := uint64(0); i < ns && r.err == nil; i++ {
		var sp telemetry.Span
		sp.Name = r.str()
		sp.Detail = r.str()
		start := r.u64()
		dur := r.u64()
		if r.err != nil {
			break
		}
		if start > math.MaxInt64 || dur > math.MaxInt64 {
			return Submission{}, fmt.Errorf("%w: span time out of range", ErrWire)
		}
		sp.Start = time.Unix(0, int64(start))
		sp.Dur = time.Duration(dur)
		s.Spans = append(s.Spans, sp)
	}
	if err := r.finish(); err != nil {
		return Submission{}, err
	}
	if s.WorkerID == "" {
		return Submission{}, fmt.Errorf("%w: empty worker id", ErrWire)
	}
	return s, nil
}

// DecodeHeartbeat parses a heartbeat frame.
func DecodeHeartbeat(data []byte) (Heartbeat, error) {
	payload, err := unframe(data, msgHeartbeat)
	if err != nil {
		return Heartbeat{}, err
	}
	r := &reader{data: payload}
	var h Heartbeat
	h.Identity = r.identity()
	h.WorkerID = r.str()
	n := r.uvarint()
	if r.err == nil && n > maxUnitClasses {
		return Heartbeat{}, fmt.Errorf("%w: heartbeat of %d units exceeds limit", ErrWire, n)
	}
	for i := uint64(0); i < n && r.err == nil; i++ {
		h.Units = append(h.Units, r.uvarint())
	}
	if err := r.finish(); err != nil {
		return Heartbeat{}, err
	}
	if h.WorkerID == "" {
		return Heartbeat{}, fmt.Errorf("%w: empty worker id", ErrWire)
	}
	return h, nil
}
