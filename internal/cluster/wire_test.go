package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"faultspace/internal/campaign"
	"faultspace/internal/checkpoint"
	"faultspace/internal/frame"
	"faultspace/internal/telemetry"
)

func testSpec() Spec {
	var id [32]byte
	for i := range id {
		id[i] = byte(i * 7)
	}
	var tr telemetry.TraceID
	for i := range tr {
		tr[i] = byte(i + 1)
	}
	return Spec{
		Proto:           ProtoVersion,
		Identity:        id,
		Name:            "hi/baseline",
		Code:            []byte{1, 2, 3, 4, 5, 6, 7, 8},
		Image:           []byte{0xaa, 0x55},
		RAMSize:         2,
		MaxSerial:       1 << 16,
		TimerPeriod:     64,
		TimerVector:     12,
		SpaceKind:       1,
		TimeoutFactor:   4,
		TimeoutSlack:    256,
		MaxGoldenCycles: 1 << 22,
		Classes:         16,
		LeaseTTL:        10 * time.Second,
		Objective:       "bypass",
		TraceID:         tr,
	}
}

// TestLeaseTTLFloor: a worker heartbeats every LeaseTTL/3, so a handshake
// announcing a TTL of a nanosecond or two would panic its ticker and one
// just above would spin it. Both ends refuse a TTL under MinLeaseTTL with
// ErrLeaseTTL: the worker decoding the spec, and CheckLeaseTTL, which the
// campaign service configured with one runs.
func TestLeaseTTLFloor(t *testing.T) {
	for _, tc := range []struct {
		ttl time.Duration
		ok  bool
	}{
		{-time.Second, false}, {1, false}, {2, false}, {999 * time.Microsecond, false},
		{MinLeaseTTL, true}, {DefaultLeaseTTL, true},
	} {
		spec := testSpec()
		spec.LeaseTTL = tc.ttl
		if _, err := DecodeSpec(EncodeSpec(spec)); (err == nil) != tc.ok || (!tc.ok && !errors.Is(err, ErrLeaseTTL)) {
			t.Errorf("DecodeSpec with lease TTL %v: err = %v", tc.ttl, err)
		}
		err := CheckLeaseTTL(tc.ttl)
		if (err == nil) != tc.ok || (!tc.ok && !errors.Is(err, ErrLeaseTTL)) {
			t.Errorf("CheckLeaseTTL(%v): err = %v", tc.ttl, err)
		}
	}
}

// TestWorkerRejectsProtoMismatch pins the fleet upgrade story: a worker
// handed a spec from a coordinator speaking another protocol version
// (e.g. a v1 binary joining a v2 campaign carrying an objective) must
// refuse at admission, before any network traffic or scan work.
func TestWorkerRejectsProtoMismatch(t *testing.T) {
	for _, proto := range []uint32{ProtoVersion - 1, ProtoVersion + 1, 0} {
		spec := testSpec()
		spec.Proto = proto
		w := &worker{base: "http://invalid.invalid", opts: WorkerOptions{WorkerID: "w"}.withDefaults()}
		err := w.run(spec, nil)
		if !errors.Is(err, ErrRejected) {
			t.Errorf("proto %d: err = %v, want ErrRejected", proto, err)
		}
	}
}

// TestBuildCampaignClassAnnouncement: a spec's class count is checked
// against the rebuilt fault space when it announces one, and a spec
// without one — a submission, which simulates nothing — builds.
func TestBuildCampaignClassAnnouncement(t *testing.T) {
	tgt, _, fs := SmallCampaign(t, "hi")
	n := uint64(len(fs.Classes))
	for _, tc := range []struct {
		name      string
		announced uint64
		rejected  bool
	}{
		{"true count", n, false},
		{"one more", n + 1, true},
		{"one fewer", n - 1, true},
		{"none announced", 0, false},
	} {
		spec, err := NewSpec(tgt, fs.Kind, campaign.Config{}, MaxGolden, tc.announced)
		if err != nil {
			t.Fatal(err)
		}
		_, _, built, _, err := BuildCampaign(spec)
		switch {
		case tc.rejected && !errors.Is(err, ErrRejected):
			t.Errorf("%s: err = %v, want ErrRejected", tc.name, err)
		case !tc.rejected && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case !tc.rejected && len(built.Classes) != len(fs.Classes):
			t.Errorf("%s: built %d classes, want %d", tc.name, len(built.Classes), len(fs.Classes))
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	want := testSpec()
	got, err := DecodeSpec(EncodeSpec(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("spec round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestWorkUnitRoundTrip(t *testing.T) {
	for _, want := range []WorkUnit{
		{Status: UnitGranted, ID: 3, Token: 99, Classes: []int{0, 1, 5, 1000, 1001}},
		{Status: UnitWait},
		{Status: UnitDone},
		{Status: UnitShutdown},
	} {
		got, err := DecodeWorkUnit(EncodeWorkUnit(want))
		if err != nil {
			t.Fatalf("%+v: %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("unit round trip:\n got %+v\nwant %+v", got, want)
		}
	}
}

func TestSubmissionRoundTrip(t *testing.T) {
	want := Submission{
		WorkerID: "w1",
		UnitID:   7,
		Token:    42,
		Entries: []checkpoint.Entry{
			{Class: 0, Outcome: 2}, {Class: 3, Outcome: 0}, {Class: 4, Outcome: 7},
		},
		// Scope is deliberately empty: it is not encoded on the wire —
		// the coordinator stamps the admitted worker ID instead, so a
		// worker cannot attribute spans to another.
		Spans: []telemetry.Span{
			{Name: "unit.scan", Detail: "unit 7", Start: time.Unix(0, 1234567890), Dur: 5 * time.Millisecond},
			{Name: "worker.wait", Start: time.Unix(0, 42), Dur: time.Microsecond},
		},
	}
	want.Identity[0] = 0xfe
	got, err := DecodeSubmission(EncodeSubmission(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("submission round trip:\n got %+v\nwant %+v", got, want)
	}
	// A span with a scope set must come back without it: the field does
	// not survive the wire by design.
	scoped := want
	scoped.Spans = []telemetry.Span{{Scope: "forged", Name: "x", Start: time.Unix(0, 1), Dur: 1}}
	got, err = DecodeSubmission(EncodeSubmission(scoped))
	if err != nil {
		t.Fatal(err)
	}
	if got.Spans[0].Scope != "" {
		t.Errorf("span scope %q crossed the wire, want stripped", got.Spans[0].Scope)
	}
}

func TestHeartbeatAndLeaseRoundTrip(t *testing.T) {
	hb := Heartbeat{WorkerID: "w2", Units: []uint64{1, 9}}
	gotHB, err := DecodeHeartbeat(EncodeHeartbeat(hb))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotHB, hb) {
		t.Errorf("heartbeat round trip: got %+v want %+v", gotHB, hb)
	}
	lr := LeaseRequest{WorkerID: "w3"}
	gotLR, err := DecodeLeaseRequest(EncodeLeaseRequest(lr))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotLR, lr) {
		t.Errorf("lease round trip: got %+v want %+v", gotLR, lr)
	}
}

func TestDecodeRejectsWrongKindAndGarbage(t *testing.T) {
	if _, err := DecodeWorkUnit(EncodeSpec(testSpec())); err == nil {
		t.Error("work-unit decoder must reject a spec frame")
	}
	if _, err := DecodeSpec(nil); err == nil {
		t.Error("spec decoder must reject empty input")
	}
	if _, err := DecodeLeaseRequest(EncodeLeaseRequest(LeaseRequest{})); err == nil {
		t.Error("empty worker id must be rejected")
	}
	// Descending classes violate the strict-ascending contract.
	bad := frame.Append(nil, 'W', []byte{
		UnitGranted,
		1, 0, 0, 0, 0, 0, 0, 0, // id
		1, 0, 0, 0, 0, 0, 0, 0, // token
		2, // two classes
		5, // class 4
		0, // delta 0 — not ascending
	})
	if _, err := DecodeWorkUnit(bad); err == nil {
		t.Error("zero class delta must be rejected")
	}
	// Trailing bytes after a valid frame.
	withTail := append(EncodeWorkUnit(WorkUnit{Status: UnitWait}), 0x00)
	if _, err := DecodeWorkUnit(withTail); err == nil {
		t.Error("trailing bytes must be rejected")
	}
}

// TestPostOnceRejectsOversizedResponse: an answer above the wire bound is
// an error naming the bound — never a frame cut short that a decoder then
// reports as corrupt. One of exactly the bound is returned whole.
func TestPostOnceRejectsOversizedResponse(t *testing.T) {
	for _, size := range []int{maxBody + 1, maxBody} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write(make([]byte, size))
		}))
		body, status, err := postOnce(context.Background(), srv.Client(), srv.URL, nil)
		srv.Close()
		if size > maxBody {
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d-byte bound", maxBody)) {
				t.Errorf("answer of %d bytes: err = %v, want one naming the bound", size, err)
			}
		} else if err != nil || status != http.StatusOK || len(body) != size {
			t.Errorf("answer of %d bytes: got %d bytes, status %d, err %v; want it whole", size, len(body), status, err)
		}
	}
}

// TestHelloCodec covers the two handshake decoders, which both servers'
// handleHandshake and Join feed bytes from the network.
func TestHelloCodec(t *testing.T) {
	for _, want := range []Hello{{WorkerID: "f1"}, {WorkerID: string(make([]byte, 300))}} {
		got, err := DecodeHello(EncodeHello(want))
		if err != nil || got != want {
			t.Errorf("fleet hello %q: got %q, %v", want.WorkerID, got.WorkerID, err)
		}
	}
	for _, want := range []HelloReply{
		{Status: HelloGranted, Spec: []byte("not decoded at this layer")},
		{Status: HelloWait},
		{Status: HelloShutdown},
	} {
		got, err := DecodeHelloReply(EncodeHelloReply(want))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("service hello: got %+v, %v, want %+v", got, err, want)
		}
	}

	// 2^64 as a ten-byte varint: the hand-rolled loop this codec replaced
	// dropped the overflowing bit and read it as a zero length.
	overflow := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}
	bad := map[string][]byte{
		"empty input":            nil,
		"wrong kind":             EncodeHelloReply(HelloReply{Status: HelloWait}),
		"trailing bytes":         append(EncodeHello(Hello{WorkerID: "f1"}), 0),
		"trailing payload bytes": frame.Append(nil, msgHello, []byte{2, 'f', '1', 0}),
		"cut string":             frame.Append(nil, msgHello, []byte{5, 'f', '1'}),
		"empty payload":          frame.Append(nil, msgHello, nil),
		"empty name":             EncodeHello(Hello{}),
		"overflowing varint":     frame.Append(nil, msgHello, overflow),
	}
	for name, data := range bad {
		if h, err := DecodeHello(data); err == nil {
			t.Errorf("fleet hello, %s: accepted as %+v", name, h)
		}
	}
	bad["wrong kind"] = EncodeHello(Hello{WorkerID: "f1"})
	bad["trailing bytes"] = append(EncodeHelloReply(HelloReply{Status: HelloWait}), 0)
	bad["trailing payload bytes"] = frame.Append(nil, msgReply, []byte{HelloWait, 0, 0})
	bad["cut string"] = frame.Append(nil, msgReply, []byte{HelloGranted, 9, 'S'})
	bad["overflowing varint"] = frame.Append(nil, msgReply, append([]byte{HelloGranted}, overflow...))
	delete(bad, "empty name")
	bad["unknown status"] = EncodeHelloReply(HelloReply{Status: HelloShutdown + 1})
	for name, data := range bad {
		if h, err := DecodeHelloReply(data); err == nil {
			t.Errorf("service hello, %s: accepted as %+v", name, h)
		}
	}
	flipped := EncodeHello(Hello{WorkerID: "f1"})
	flipped[len(flipped)-1] ^= 1
	if _, err := DecodeHello(flipped); !errors.Is(err, ErrWire) {
		t.Errorf("flipped bit: err = %v, want ErrWire", err)
	}
}
