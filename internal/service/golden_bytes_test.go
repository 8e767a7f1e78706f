package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"faultspace/internal/checkpoint"
	"faultspace/internal/cluster"
	"faultspace/internal/telemetry"
)

// goldenSpec is a handshake spec with every field set to a distinct
// value, at the current protocol version.
func goldenSpec() cluster.Spec {
	s := cluster.Spec{
		Proto:           3,
		Identity:        testID(0x11),
		Name:            "hi",
		Code:            []byte{0xde, 0xad, 0xbe, 0xef},
		Image:           []byte{0x01, 0x02},
		RAMSize:         2,
		MaxSerial:       0x0102,
		TimerPeriod:     64,
		TimerVector:     12,
		SpaceKind:       1,
		TimeoutFactor:   4,
		TimeoutSlack:    256,
		MaxGoldenCycles: 1 << 22,
		Classes:         16,
		LeaseTTL:        10 * time.Second,
		Objective:       "bypass",
	}
	for i := range s.TraceID {
		s.TraceID[i] = byte(0xa0 + i)
	}
	return s
}

// goldenCheckpoint writes a checkpoint through the real Writer — header
// frame, one records frame — and returns the file image.
func goldenCheckpoint(t *testing.T) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.ckpt")
	w, err := checkpoint.Create(path, checkpoint.Header{Version: checkpoint.Version, Identity: testID(0x22), Classes: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range goldenEntries {
		if err := w.Append(e.Class, e.Outcome); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

var goldenEntries = []checkpoint.Entry{{Class: 0, Outcome: 2}, {Class: 3, Outcome: 0}, {Class: 300, Outcome: 7}}

// twoChunkReport spans two 'D' frames: one full chunk and a 5-byte tail.
func twoChunkReport() []byte {
	report := make([]byte, chunkSize+5)
	for i := range report {
		report[i] = byte(i * 7)
	}
	return report
}

// TestGoldenWireBytes pins the byte-identity contract of the wire layer:
// every frame kind encodes to exactly the bytes recorded from the commit
// before internal/frame existed, and decodes back to the value it was
// encoded from. A change to any literal here is a format change — it
// needs a version bump, not an edit of the literal.
func TestGoldenWireBytes(t *testing.T) {
	unit := cluster.WorkUnit{Status: cluster.UnitGranted, ID: 3, Token: 99, Classes: []int{0, 1, 5, 1000, 1001}}
	lease := cluster.LeaseRequest{Identity: testID(0x33), WorkerID: "w1"}
	sub := cluster.Submission{
		Identity: testID(0x44),
		WorkerID: "w1",
		UnitID:   7,
		Token:    42,
		Entries:  goldenEntries,
		Spans: []telemetry.Span{
			{Name: "unit.scan", Detail: "unit 7", Start: time.Unix(0, 1234567890), Dur: 5 * time.Millisecond},
			{Name: "worker.wait", Start: time.Unix(0, 42), Dur: time.Microsecond},
		},
	}
	beat := cluster.Heartbeat{Identity: testID(0x55), WorkerID: "w2", Units: []uint64{1, 9, 300}}
	granted := cluster.HelloReply{Status: cluster.HelloGranted, Spec: cluster.EncodeSpec(goldenSpec())}
	report := twoChunkReport()

	rows := []struct {
		name string
		got  []byte
		// want is the full encoding in hex, or — for the one row too large
		// for a literal — its leading bytes, with sum pinning the rest.
		want string
		sum  string
		back func(data []byte) (any, error)
		orig any
	}{
		{
			name: "checkpoint H+R",
			got:  goldenCheckpoint(t),
			want: "464156434b505431482c0000008f6a071f010000002222222222222222222222222222222222222222222222222222222222222222e8030000000000005207000000805734eb00020300ac0207",
			back: func(d []byte) (any, error) {
				h, entries, err := checkpoint.Decode(d)
				if err == nil && (h != checkpoint.Header{Version: checkpoint.Version, Identity: testID(0x22), Classes: 1000}) {
					t.Errorf("checkpoint header came back as %+v", h)
				}
				return entries, err
			},
			orig: goldenEntries,
		},
		{
			name: "S spec proto 3",
			got:  cluster.EncodeSpec(goldenSpec()),
			want: "538b0000002e242ae403000000111111111111111111111111111111111111111111111111111111111111111102686904deadbeef0201020200000000000000020100000000000040000000000000000c00000001000000000000104000010000000000000000400000000000100000000000000000e40b540200000006627970617373a0a1a2a3a4a5a6a7a8a9aaabacadaeaf",
			back: func(d []byte) (any, error) { return cluster.DecodeSpec(d) },
			orig: goldenSpec(),
		},
		{
			name: "L lease request",
			got:  cluster.EncodeLeaseRequest(lease),
			want: "4c230000009a3244d03333333333333333333333333333333333333333333333333333333333333333027731",
			back: func(d []byte) (any, error) { return cluster.DecodeLeaseRequest(d) },
			orig: lease,
		},
		{
			name: "W work unit",
			got:  cluster.EncodeWorkUnit(unit),
			want: "5718000000ca56e33e000300000000000000630000000000000005010104e30701",
			back: func(d []byte) (any, error) { return cluster.DecodeWorkUnit(d) },
			orig: unit,
		},
		{
			name: "U submission with entries and spans",
			got:  cluster.EncodeSubmission(sub),
			want: "557a000000c25f079d444444444444444444444444444444444444444444444444444444444444444402773107000000000000002a000000000000000301020300a902070209756e69742e7363616e06756e69742037d202964900000000404b4c00000000000b776f726b65722e77616974002a00000000000000e803000000000000",
			back: func(d []byte) (any, error) { return cluster.DecodeSubmission(d) },
			orig: sub,
		},
		{
			name: "B heartbeat",
			got:  cluster.EncodeHeartbeat(beat),
			want: "422800000051e9f3c85555555555555555555555555555555555555555555555555555555555555555027732030109ac02",
			back: func(d []byte) (any, error) { return cluster.DecodeHeartbeat(d) },
			orig: beat,
		},
		{
			name: "F fleet hello",
			got:  cluster.EncodeHello(cluster.Hello{WorkerID: "fleet-7"}),
			want: "4608000000eea0f26e07666c6565742d37",
			back: func(d []byte) (any, error) { return cluster.DecodeHello(d) },
			orig: cluster.Hello{WorkerID: "fleet-7"},
		},
		{
			name: "V service hello granted",
			got:  cluster.EncodeHelloReply(granted),
			want: "5697000000d34362b5009401538b0000002e242ae403000000111111111111111111111111111111111111111111111111111111111111111102686904deadbeef0201020200000000000000020100000000000040000000000000000c00000001000000000000104000010000000000000000400000000000100000000000000000e40b540200000006627970617373a0a1a2a3a4a5a6a7a8a9aaabacadaeaf",
			back: func(d []byte) (any, error) { return cluster.DecodeHelloReply(d) },
			orig: granted,
		},
		{
			name: "V service hello wait",
			got:  cluster.EncodeHelloReply(cluster.HelloReply{Status: cluster.HelloWait}),
			want: "5602000000be23c2580100",
			back: func(d []byte) (any, error) { return cluster.DecodeHelloReply(d) },
			orig: cluster.HelloReply{Status: cluster.HelloWait},
		},
		{
			name: "E+D entry spanning two chunks",
			got:  EncodeEntry(testID(0x66), report),
			want: "464156415243483145230000000e8daae266666666666666666666666666666666666666666666666666666666666666668580204400000800ad30bd34",
			sum:  "02c148219b56e1b4334d009a850673b69d819094ab11ce4010afc6a3db346c8b",
			back: func(d []byte) (any, error) {
				id, back, err := DecodeEntry(d)
				if err == nil && id != testID(0x66) {
					t.Errorf("entry identity came back as %x", id)
				}
				return back, err
			},
			orig: report,
		},
	}
	for _, row := range rows {
		enc := hex.EncodeToString(row.got)
		if row.sum != "" {
			// magic + 'E' frame + the first 'D' frame's header.
			enc = enc[:2*(len(storeMagic)+9+35+9)]
			if sum := sha256.Sum256(row.got); hex.EncodeToString(sum[:]) != row.sum {
				t.Errorf("%s: sha256 of the encoding is\n %x, want\n %s", row.name, sum, row.sum)
			}
		}
		if enc != row.want {
			t.Errorf("%s: encodes to\n %s, want\n %s", row.name, enc, row.want)
		}
		back, err := row.back(row.got)
		if err != nil {
			t.Errorf("%s: decode: %v", row.name, err)
			continue
		}
		if b, ok := back.([]byte); ok {
			if !bytes.Equal(b, row.orig.([]byte)) {
				t.Errorf("%s: report changed across the round trip", row.name)
			}
		} else if !reflect.DeepEqual(back, row.orig) {
			t.Errorf("%s: decodes to\n %+v, want\n %+v", row.name, back, row.orig)
		}
	}
}
