package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"faultspace/internal/frame"
	"faultspace/internal/telemetry"
)

// headerLen is the size of the 'H' payload: version, identity, classes.
const headerLen = 4 + 32 + 8

func testHeader() Header {
	h := Header{Version: Version, Classes: 1000}
	for i := range h.Identity {
		h.Identity[i] = byte(i * 7)
	}
	return h
}

func writeRecords(t *testing.T, w *Writer, entries []Entry) {
	t.Helper()
	for _, e := range entries {
		if err := w.Append(e.Class, e.Outcome); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	h := testHeader()
	w, err := Create(path, h)
	if err != nil {
		t.Fatal(err)
	}
	want := []Entry{{0, 2}, {7, 0}, {999, 5}, {42, 3}}
	writeRecords(t, w, want)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	gotH, got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if gotH != h {
		t.Errorf("header mismatch: %+v != %+v", gotH, h)
	}
	if len(got) != len(want) {
		t.Fatalf("loaded %d records, want %d", len(got), len(want))
	}
	for _, e := range want {
		if got[e.Class] != e.Outcome {
			t.Errorf("class %d: outcome %d, want %d", e.Class, got[e.Class], e.Outcome)
		}
	}
}

func TestCreateRefusesExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	w, err := Create(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, err := Create(path, testHeader()); err == nil {
		t.Fatal("Create must refuse to overwrite an existing checkpoint")
	}
}

func TestOpenCreatesMissing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	w, prior, err := Open(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) != 0 {
		t.Errorf("fresh checkpoint has %d prior records", len(prior))
	}
	writeRecords(t, w, []Entry{{1, 1}})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, prior, err = Open(path, testHeader()); err != nil || len(prior) != 1 {
		t.Fatalf("reopen: prior=%v err=%v", prior, err)
	}
}

func TestOpenAppendsAcrossSessions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	h := testHeader()
	w, err := Create(path, h)
	if err != nil {
		t.Fatal(err)
	}
	writeRecords(t, w, []Entry{{1, 1}, {2, 2}})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w, prior, err := Open(path, h)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) != 2 {
		t.Fatalf("prior = %v, want 2 records", prior)
	}
	writeRecords(t, w, []Entry{{3, 3}})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, all, err := Load(path)
	if err != nil || len(all) != 3 || all[3] != 3 {
		t.Fatalf("final load: %v err=%v", all, err)
	}
}

// TestTornTailRecovery simulates a crash mid-write. It cuts a file whose
// last three frames went out in one commit at every byte offset: Open salvages exactly the
// whole frames before the cut (none, starting over, when the cut is
// inside the header), and appending the rest gives the reference outcomes.
func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.ckpt")
	h := testHeader()
	w, err := Create(path, h)
	if err != nil {
		t.Fatal(err)
	}
	w.FlushEvery = 2
	entered, release := gateSync(w)
	reference := []Entry{{1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}, {6, 6}, {7, 7}, {8, 0}}
	writeRecords(t, w, reference[:2])
	<-entered
	writeRecords(t, w, reference[2:]) // three frames, one commit
	go func() { release <- nil; <-entered; release <- nil }()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// ends[k] is where the k-th records frame ends; ends[0] the header.
	_, _, next, err := frame.Read(full, len(magic))
	ends := []int{next}
	for err == nil && next < len(full) {
		_, _, next, err = frame.Read(full, next)
		ends = append(ends, next)
	}
	if err != nil || len(ends) != 5 {
		t.Fatalf("reference file: %d frames, err %v, want header + 4", len(ends), err)
	}

	torn := filepath.Join(dir, "torn.ckpt")
	for cut := 0; cut < len(full); cut++ {
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		whole := 0
		for whole+1 < len(ends) && ends[whole+1] <= cut {
			whole++
		}
		w, prior, err := Open(torn, h)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if len(prior) != 2*whole {
			t.Fatalf("cut at %d: salvaged %v, want the %d whole frames", cut, prior, whole)
		}
		for _, e := range reference[:2*whole] {
			if o, ok := prior[e.Class]; !ok || o != e.Outcome {
				t.Fatalf("cut at %d: salvaged %v, want the %d whole frames", cut, prior, whole)
			}
		}
		w.FlushEvery = 2
		writeRecords(t, w, reference[2*whole:])
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(torn); err != nil || !bytes.Equal(got, full) {
			t.Fatalf("cut at %d: the resumed file differs from the uninterrupted one (err %v)", cut, err)
		}
	}
}

func TestCorruptFrameRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	h := testHeader()
	w, err := Create(path, h)
	if err != nil {
		t.Fatal(err)
	}
	writeRecords(t, w, []Entry{{1, 1}})
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	writeRecords(t, w, []Entry{{2, 2}})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	// Flip a byte in the last frame's payload: its CRC no longer matches.
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decode of corrupt frame: %v, want ErrCorrupt", err)
	}
	w, prior, err := Open(path, h)
	if err != nil {
		t.Fatalf("Open must recover the valid prefix: %v", err)
	}
	defer w.Close()
	if len(prior) != 1 || prior[1] != 1 {
		t.Fatalf("salvaged %v, want class 1 only", prior)
	}
}

func TestHeaderMismatches(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	h := testHeader()
	w, err := Create(path, h)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()

	other := h
	other.Identity[0] ^= 1
	if _, _, err := Open(path, other); !errors.Is(err, ErrIdentityMismatch) {
		t.Errorf("identity mismatch: %v", err)
	}
	other = h
	other.Classes++
	if _, _, err := Open(path, other); !errors.Is(err, ErrIdentityMismatch) {
		t.Errorf("class-count mismatch: %v", err)
	}
}

func TestVersionMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	w, err := Create(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	data, _ := os.ReadFile(path)
	// Patch the version field (payload offset 0 of the header frame) and
	// re-CRC the header payload so only the version is "wrong".
	payload := data[len(magic)+frame.HeaderLen:]
	payload[0] = 99
	fixed := frame.Append(append([]byte{}, magic...), kindHeader, payload)
	if _, _, err := Decode(fixed); !errors.Is(err, ErrVersion) {
		t.Fatalf("version 99: %v, want ErrVersion", err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":                 {},
		"bad magic":             []byte("NOTACKPT file"),
		"magic only, no header": []byte(magic),
	}
	for name, data := range cases {
		if _, _, err := Decode(data); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: err = %v, want ErrFormat", name, err)
		}
	}
}

func TestDecodeRejectsOutOfRangeClass(t *testing.T) {
	h := testHeader()
	h.Classes = 3
	var payload []byte
	payload = append(payload, 0x05, 0x01) // class 5 >= 3 classes
	file := makeFile(h, payload)
	if _, _, err := Decode(file); !errors.Is(err, ErrFormat) {
		t.Fatalf("out-of-range class: %v, want ErrFormat", err)
	}
}

// makeFile hand-assembles a checkpoint image from a header and one raw
// records payload.
func makeFile(h Header, records []byte) []byte {
	hp := make([]byte, headerLen)
	hp[0] = byte(h.Version)
	copy(hp[4:36], h.Identity[:])
	hp[36] = byte(h.Classes)
	file := append([]byte{}, magic...)
	file = frame.Append(file, kindHeader, hp)
	return frame.Append(file, kindRecords, records)
}

func TestStickyWriterError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	w, err := Create(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	w.f.Close() // sabotage the descriptor: the next flush must fail
	w.buf = append(w.buf, 1, 1)
	w.pending = 1
	if err := w.Sync(); err == nil {
		t.Fatal("flush on closed file must fail")
	}
	if err := w.Append(2, 2); err == nil {
		t.Fatal("append after failed flush must report the sticky error")
	}
	if err := w.Close(); err == nil {
		t.Fatal("close must report the sticky error")
	}
}

func TestLargeCampaignManyFlushes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	h := Header{Version: Version, Classes: 100000}
	w, err := Create(path, h)
	if err != nil {
		t.Fatal(err)
	}
	w.FlushEvery = 64
	for i := 0; i < 10000; i++ {
		if err := w.Append(i*7%100000, uint8(i%8)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < 9000 {
		t.Fatalf("loaded %d distinct records", len(got))
	}
}

// TestWriterTelemetry: an instrumented writer accounts every frame, the
// exact frame bytes written and an fsync timing sample per commit — at
// least one, at most one per frame.
func TestWriterTelemetry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	w, err := Create(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	w.Instrument(reg)
	w.FlushEvery = 2
	writeRecords(t, w, []Entry{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}})
	if err := w.Close(); err != nil { // flushes the odd record out
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if got := s.Counters["checkpoint.flushes"]; got != 3 {
		t.Errorf("checkpoint.flushes = %d, want 3 (2+2+1 records)", got)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	headerBytes := int64(len(magic) + frame.HeaderLen + headerLen)
	if got := s.Counters["checkpoint.bytes"]; int64(got) != fi.Size()-headerBytes {
		t.Errorf("checkpoint.bytes = %d, want %d (file size minus header)", got, fi.Size()-headerBytes)
	}
	if got := s.Histograms["checkpoint.fsync"].Count; got < 1 || got > 3 {
		t.Errorf("checkpoint.fsync samples = %d, want 1 to 3 (commits of 3 frames)", got)
	}
	// Uninstrumented writers keep working (nil-instrument fast path).
	w2, err := Create(filepath.Join(t.TempDir(), "d.ckpt"), testHeader())
	if err != nil {
		t.Fatal(err)
	}
	writeRecords(t, w2, []Entry{{5, 1}})
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
}
