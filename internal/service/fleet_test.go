package service

import (
	"errors"
	"reflect"
	"testing"

	"faultspace/internal/frame"
)

// TestHelloCodec covers the two fleet handshake decoders, which
// handleHandshake and JoinFleet feed bytes from the network.
func TestHelloCodec(t *testing.T) {
	for _, want := range []FleetHello{{WorkerID: "f1"}, {WorkerID: ""}, {WorkerID: string(make([]byte, 300))}} {
		got, err := DecodeFleetHello(EncodeFleetHello(want))
		if err != nil || got != want {
			t.Errorf("fleet hello %q: got %q, %v", want.WorkerID, got.WorkerID, err)
		}
	}
	for _, want := range []ServiceHello{
		{Status: FleetGranted, Spec: []byte("not decoded at this layer")},
		{Status: FleetWait},
		{Status: FleetShutdown},
	} {
		got, err := DecodeServiceHello(EncodeServiceHello(want))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("service hello: got %+v, %v, want %+v", got, err, want)
		}
	}

	// 2^64 as a ten-byte varint: the hand-rolled loop this codec replaced
	// dropped the overflowing bit and read it as a zero length.
	overflow := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}
	bad := map[string][]byte{
		"empty input":            nil,
		"wrong kind":             EncodeServiceHello(ServiceHello{Status: FleetWait}),
		"trailing bytes":         append(EncodeFleetHello(FleetHello{WorkerID: "f1"}), 0),
		"trailing payload bytes": frame.Append(nil, msgFleetHello, []byte{2, 'f', '1', 0}),
		"cut string":             frame.Append(nil, msgFleetHello, []byte{5, 'f', '1'}),
		"empty payload":          frame.Append(nil, msgFleetHello, nil),
		"overflowing varint":     frame.Append(nil, msgFleetHello, overflow),
	}
	for name, data := range bad {
		if h, err := DecodeFleetHello(data); err == nil {
			t.Errorf("fleet hello, %s: accepted as %+v", name, h)
		}
	}
	bad["wrong kind"] = EncodeFleetHello(FleetHello{WorkerID: "f1"})
	bad["trailing bytes"] = append(EncodeServiceHello(ServiceHello{Status: FleetWait}), 0)
	bad["trailing payload bytes"] = frame.Append(nil, msgServiceHello, []byte{FleetWait, 0, 0})
	bad["cut string"] = frame.Append(nil, msgServiceHello, []byte{FleetGranted, 9, 'S'})
	bad["overflowing varint"] = frame.Append(nil, msgServiceHello, append([]byte{FleetGranted}, overflow...))
	for name, data := range bad {
		if h, err := DecodeServiceHello(data); err == nil {
			t.Errorf("service hello, %s: accepted as %+v", name, h)
		}
	}
	flipped := EncodeFleetHello(FleetHello{WorkerID: "f1"})
	flipped[len(flipped)-1] ^= 1
	if _, err := DecodeFleetHello(flipped); !errors.Is(err, frame.ErrCorrupt) {
		t.Errorf("flipped bit: err = %v, want frame.ErrCorrupt", err)
	}
}
