// Package cluster distributes a fault-injection campaign across machines:
// the campaign service (internal/service) shards the pruned equivalence
// classes of a campaign into leased work units and serves them over HTTP;
// workers pull leases, run the experiments through the regular campaign
// machinery and stream the per-class outcomes back. The package holds the
// worker (Join), the campaign spec, the held-request loop both ends share
// and the wire codec between them; it serves no HTTP itself, and the
// lease protocol's state machine is internal/cluster/lease.
//
// The design leans entirely on two invariants established earlier:
// experiments are deterministic and independent (so any worker computes
// the same outcome for a class), and execution placement — like strategy
// and worker count — is excluded from the campaign identity hash. The
// identity hash doubles as the admission check: every request after the
// handshake carries it, the service routes the request by it, and a
// worker whose program image, fault-space kind or timeout budget differs
// names no campaign there and is rejected with HTTP 409.
//
// # Wire protocol
//
// Every message body is one CRC-guarded frame; the frame grammar and the
// field encodings (little-endian integers, uvarints, length-prefixed
// strings, ascending index lists) are those of internal/frame. A worker
// speaks to the campaign service through four endpoints:
//
//	POST /v1/handshake  'F' hello → 'V' reply: granted + the 'S' spec of a
//	                    campaign (everything a worker needs to rebuild it:
//	                    program, machine config, fault-space kind, timeout
//	                    budget, identity hash), wait, or shutdown. The hello
//	                    joins the worker to the granted campaign and is its
//	                    exit notice from the one it worked on before
//	POST /v1/lease      'L' request → 'W' work unit (or wait/done/shutdown)
//	POST /v1/submit     'U' submission → 200 (idempotent, duplicate-safe)
//	POST /v1/heartbeat  'B' heartbeat → 200 (extends lease deadlines)
//
// Decoders never panic on malformed input — the FuzzWorkUnitDecode fuzz
// target pins that down, mirroring FuzzCheckpointDecode.
package cluster

import (
	"encoding/binary"
	"errors"
	"math"
	"time"

	"faultspace/internal/checkpoint"
	"faultspace/internal/frame"
	"faultspace/internal/telemetry"
)

// ProtoVersion is the wire-protocol version spoken by this package.
// Version 2 appended the attacker-objective name to the handshake spec;
// version-1 peers reject it at admission, so a mixed fleet can never
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
	msgHello     = 'F'
	msgReply     = 'V'
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
	Classes         uint64 // total equivalence-class count (sanity check); 0 = not announced
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

// Hello statuses of a handshake reply.
const (
	// HelloGranted carries the spec of the campaign the worker now belongs
	// to.
	HelloGranted uint8 = iota
	// HelloWait means no campaign is running right now; ask again, held.
	// Only the campaign service says it.
	HelloWait
	// HelloShutdown dismisses the worker: the campaign is over or the
	// service is draining, and nothing will be granted any more.
	HelloShutdown
)

// Hello is a worker's handshake: it names the worker and asks for a
// campaign to work on.
type Hello struct {
	WorkerID string
}

// HelloReply answers a Hello. Spec, present when Status is HelloGranted,
// is the granted campaign's encoded spec frame.
type HelloReply struct {
	Status uint8
	Spec   []byte
}

// LeaseRequest asks the coordinator for a work unit.
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

var le = binary.LittleEndian

// EncodeSpec encodes a handshake spec as one wire frame.
func EncodeSpec(s Spec) []byte {
	p := make([]byte, 0, 64+len(s.Code)+len(s.Image))
	p = le.AppendUint32(p, s.Proto)
	p = append(p, s.Identity[:]...)
	p = frame.AppendString(p, s.Name)
	p = frame.AppendBytes(p, s.Code)
	p = frame.AppendBytes(p, s.Image)
	p = le.AppendUint64(p, s.RAMSize)
	p = le.AppendUint64(p, s.MaxSerial)
	p = le.AppendUint64(p, s.TimerPeriod)
	p = le.AppendUint32(p, s.TimerVector)
	p = append(p, s.SpaceKind)
	p = le.AppendUint64(p, math.Float64bits(s.TimeoutFactor))
	p = le.AppendUint64(p, s.TimeoutSlack)
	p = le.AppendUint64(p, s.MaxGoldenCycles)
	p = le.AppendUint64(p, s.Classes)
	p = le.AppendUint64(p, uint64(s.LeaseTTL))
	p = frame.AppendString(p, s.Objective)
	p = append(p, s.TraceID[:]...)
	return frame.Append(nil, msgSpec, p)
}

// EncodeWorkUnit encodes a lease response as one wire frame. Classes must
// be strictly ascending (they are delta-encoded).
func EncodeWorkUnit(u WorkUnit) []byte {
	p := make([]byte, 0, 16+2*len(u.Classes))
	p = append(p, u.Status)
	p = le.AppendUint64(p, u.ID)
	p = le.AppendUint64(p, u.Token)
	p = binary.AppendUvarint(p, uint64(len(u.Classes)))
	prev := -1
	for _, ci := range u.Classes {
		p = frame.AppendDelta(p, prev, ci)
		prev = ci
	}
	return frame.Append(nil, msgWorkUnit, p)
}

// EncodeHello encodes a handshake frame.
func EncodeHello(h Hello) []byte {
	return frame.Append(nil, msgHello, frame.AppendString(nil, h.WorkerID))
}

// EncodeHelloReply encodes a handshake reply frame.
func EncodeHelloReply(h HelloReply) []byte {
	p := make([]byte, 0, 16+len(h.Spec))
	p = append(p, h.Status)
	p = frame.AppendBytes(p, h.Spec)
	return frame.Append(nil, msgReply, p)
}

// EncodeLeaseRequest encodes a lease request frame.
func EncodeLeaseRequest(r LeaseRequest) []byte {
	p := make([]byte, 0, 40+len(r.WorkerID))
	p = append(p, r.Identity[:]...)
	p = frame.AppendString(p, r.WorkerID)
	return frame.Append(nil, msgLease, p)
}

// EncodeSubmission encodes a result submission frame. Entries must be
// strictly ascending by class.
func EncodeSubmission(s Submission) []byte {
	p := make([]byte, 0, 64+3*len(s.Entries))
	p = append(p, s.Identity[:]...)
	p = frame.AppendString(p, s.WorkerID)
	p = le.AppendUint64(p, s.UnitID)
	p = le.AppendUint64(p, s.Token)
	p = binary.AppendUvarint(p, uint64(len(s.Entries)))
	prev := -1
	for _, e := range s.Entries {
		p = frame.AppendDelta(p, prev, e.Class)
		p = append(p, e.Outcome)
		prev = e.Class
	}
	p = binary.AppendUvarint(p, uint64(len(s.Spans)))
	for _, sp := range s.Spans {
		p = frame.AppendString(p, sp.Name)
		p = frame.AppendString(p, sp.Detail)
		p = le.AppendUint64(p, uint64(sp.Start.UnixNano()))
		p = le.AppendUint64(p, uint64(sp.Dur.Nanoseconds()))
	}
	return frame.Append(nil, msgSubmit, p)
}

// EncodeHeartbeat encodes a heartbeat frame.
func EncodeHeartbeat(h Heartbeat) []byte {
	p := make([]byte, 0, 48+8*len(h.Units))
	p = append(p, h.Identity[:]...)
	p = frame.AppendString(p, h.WorkerID)
	p = binary.AppendUvarint(p, uint64(len(h.Units)))
	for _, id := range h.Units {
		p = binary.AppendUvarint(p, id)
	}
	return frame.Append(nil, msgHeartbeat, p)
}

// --- decoding ------------------------------------------------------------

// open validates the outer frame of a message — exactly one frame of the
// expected kind — and returns a reader over its payload. A framing
// failure is the reader's first error, so decoders check once, at Finish.
func open(data []byte, kind byte) frame.Reader {
	payload, err := frame.Single(data, kind)
	r := frame.NewReader(payload, ErrWire)
	if err != nil {
		r.Failf("%v", err)
	}
	return r
}

// DecodeSpec parses a handshake spec frame. It never panics.
func DecodeSpec(data []byte) (Spec, error) {
	r := open(data, msgSpec)
	var s Spec
	s.Proto = r.U32()
	s.Identity = r.Identity()
	s.Name = r.String()
	s.Code = append([]byte(nil), r.Bytes()...)
	s.Image = append([]byte(nil), r.Bytes()...)
	s.RAMSize = r.U64()
	s.MaxSerial = r.U64()
	s.TimerPeriod = r.U64()
	s.TimerVector = r.U32()
	s.SpaceKind = r.U8()
	s.TimeoutFactor = math.Float64frombits(r.U64())
	s.TimeoutSlack = r.U64()
	s.MaxGoldenCycles = r.U64()
	s.Classes = r.U64()
	s.LeaseTTL = time.Duration(r.U64())
	s.Objective = r.String()
	if s.Proto >= 3 {
		// Proto-2 frames end at the objective; decoding them cleanly lets
		// the worker report the version mismatch instead of "payload cut".
		copy(s.TraceID[:], r.Take(len(s.TraceID)))
	}
	if err := r.Finish(); err != nil {
		return Spec{}, err
	}
	if err := CheckLeaseTTL(s.LeaseTTL); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// DecodeWorkUnit parses a lease response frame. It never panics: mutated
// or truncated frames error out (the FuzzWorkUnitDecode contract).
func DecodeWorkUnit(data []byte) (WorkUnit, error) {
	r := open(data, msgWorkUnit)
	u := WorkUnit{Status: r.U8(), ID: r.U64(), Token: r.U64()}
	prev := -1
	for n := r.Count(maxUnitClasses, "unit classes"); n > 0 && r.Err() == nil; n-- {
		prev = r.Delta(prev)
		u.Classes = append(u.Classes, prev)
	}
	if u.Status > UnitShutdown {
		r.Failf("unknown unit status %d", u.Status)
	}
	if err := r.Finish(); err != nil {
		return WorkUnit{}, err
	}
	return u, nil
}

// DecodeHello parses a handshake frame.
func DecodeHello(data []byte) (Hello, error) {
	r := open(data, msgHello)
	h := Hello{WorkerID: workerID(&r)}
	if err := r.Finish(); err != nil {
		return Hello{}, err
	}
	return h, nil
}

// DecodeHelloReply parses a handshake reply frame; the returned Spec
// aliases data.
func DecodeHelloReply(data []byte) (HelloReply, error) {
	r := open(data, msgReply)
	h := HelloReply{Status: r.U8()}
	if spec := r.Bytes(); len(spec) > 0 {
		h.Spec = spec
	}
	if h.Status > HelloShutdown {
		r.Failf("unknown hello status %d", h.Status)
	}
	if err := r.Finish(); err != nil {
		return HelloReply{}, err
	}
	return h, nil
}

// DecodeLeaseRequest parses a lease request frame.
func DecodeLeaseRequest(data []byte) (LeaseRequest, error) {
	r := open(data, msgLease)
	q := LeaseRequest{Identity: r.Identity(), WorkerID: workerID(&r)}
	if err := r.Finish(); err != nil {
		return LeaseRequest{}, err
	}
	return q, nil
}

// workerID reads the ID a worker signs its messages with; it must not be
// empty.
func workerID(r *frame.Reader) string {
	id := r.String()
	if id == "" {
		r.Failf("empty worker id")
	}
	return id
}

// DecodeSubmission parses a result submission frame.
func DecodeSubmission(data []byte) (Submission, error) {
	r := open(data, msgSubmit)
	s := Submission{Identity: r.Identity(), WorkerID: workerID(&r), UnitID: r.U64(), Token: r.U64()}
	prev := -1
	for n := r.Count(maxUnitClasses, "submission entries"); n > 0 && r.Err() == nil; n-- {
		prev = r.Delta(prev)
		s.Entries = append(s.Entries, checkpoint.Entry{Class: prev, Outcome: r.U8()})
	}
	for n := r.Count(maxSubmitSpans, "submission spans"); n > 0 && r.Err() == nil; n-- {
		sp := telemetry.Span{Name: r.String(), Detail: r.String()}
		start, dur := r.U64(), r.U64()
		if start > math.MaxInt64 || dur > math.MaxInt64 {
			r.Failf("span time out of range")
		}
		sp.Start = time.Unix(0, int64(start))
		sp.Dur = time.Duration(dur)
		s.Spans = append(s.Spans, sp)
	}
	if err := r.Finish(); err != nil {
		return Submission{}, err
	}
	return s, nil
}

// DecodeHeartbeat parses a heartbeat frame.
func DecodeHeartbeat(data []byte) (Heartbeat, error) {
	r := open(data, msgHeartbeat)
	h := Heartbeat{Identity: r.Identity(), WorkerID: workerID(&r)}
	for n := r.Count(maxUnitClasses, "heartbeat units"); n > 0 && r.Err() == nil; n-- {
		h.Units = append(h.Units, r.Uvarint())
	}
	if err := r.Finish(); err != nil {
		return Heartbeat{}, err
	}
	return h, nil
}
