package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"faultspace/internal/leakcheck"
	"faultspace/internal/telemetry"
)

// gateSync replaces the writer's fsync by one that reports each call on
// entered and then waits for a verdict on release: the tests decide how
// long a commit takes and how it ends.
func gateSync(w *Writer) (entered <-chan struct{}, release chan<- error) {
	e, r := make(chan struct{}), make(chan error)
	w.syncFile = func() error {
		e <- struct{}{}
		return <-r
	}
	return e, r
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// progress reads the flusher's counters.
func progress(w *Writer) (sealed, durable int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sealed, w.durable
}

// TestGroupCommitCoalesces: Append never waits for the disk, the frames
// sealed while a commit is in flight go out together in the next one, that
// commit covers every frame sealed before it started, and Sync and Close
// return only when everything sealed is durable.
func TestGroupCommitCoalesces(t *testing.T) {
	settled := leakcheck.Goroutines(t)
	path := filepath.Join(t.TempDir(), "c.ckpt")
	w, err := Create(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	w.Instrument(reg)
	w.FlushEvery = 2
	entered, release := gateSync(w)
	headLen := fileSize(t, path)

	writeRecords(t, w, []Entry{{0, 1}, {1, 2}}) // frame 1 starts commit 1
	<-entered
	oneFrame := fileSize(t, path) - headLen
	// Commit 1 is stuck in its fsync; three more frames queue up behind it
	// without Append blocking, and none of them reaches the file.
	writeRecords(t, w, []Entry{{2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 0}})
	if sealed, durable := progress(w); sealed != 4 || durable != 0 {
		t.Fatalf("during commit 1: sealed %d, durable %d, want 4 and 0", sealed, durable)
	}
	if got := fileSize(t, path) - headLen; got != oneFrame {
		t.Fatalf("a frame was written while a commit was in flight: %d bytes, want %d", got, oneFrame)
	}

	synced := make(chan error, 1)
	go func() { synced <- w.Sync() }()
	release <- nil
	<-entered // commit 2: one write of everything that was queued
	if got := fileSize(t, path) - headLen; got != 4*oneFrame {
		t.Errorf("commit 2 wrote up to byte %d, want all 4 frames (%d)", got, 4*oneFrame)
	}
	select {
	case err := <-synced:
		t.Fatalf("Sync returned (%v) before the frames it sealed were durable", err)
	case <-time.After(20 * time.Millisecond):
	}
	release <- nil
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
	if sealed, durable := progress(w); sealed != 4 || durable != 4 {
		t.Errorf("after Sync: sealed %d, durable %d, want 4 and 4", sealed, durable)
	}

	writeRecords(t, w, []Entry{{8, 1}}) // left for Close to seal
	go func() { <-entered; release <- nil }()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if sealed, durable := progress(w); sealed != 5 || durable != 5 {
		t.Errorf("after Close: sealed %d, durable %d, want 5 and 5", sealed, durable)
	}
	s := reg.Snapshot()
	if frames, commits := s.Counters["checkpoint.flushes"], s.Histograms["checkpoint.fsync"].Count; frames != 5 || commits != 3 {
		t.Errorf("%d frames in %d commits, want 5 in 3", frames, commits)
	}
	if got := int64(s.Counters["checkpoint.bytes"]); got != fileSize(t, path)-headLen {
		t.Errorf("checkpoint.bytes = %d, want %d", got, fileSize(t, path)-headLen)
	}
	if _, got, err := Load(path); err != nil || len(got) != 9 {
		t.Fatalf("loaded %d records (err %v), want 9", len(got), err)
	}
	if err := w.Append(9, 1); !errors.Is(err, os.ErrClosed) {
		t.Errorf("Append after Close: %v, want os.ErrClosed", err)
	}
	if err := w.Close(); err != nil {
		t.Errorf("second Close: %v, want the first one's nil", err)
	}
	settled()
}

// TestCommitErrorIsSticky: a failed fsync stops the flusher for good. The
// error is what the next Append, Sync and Close return, the frames queued
// behind the failed commit never reach the file, and no goroutine is left.
func TestCommitErrorIsSticky(t *testing.T) {
	settled := leakcheck.Goroutines(t)
	path := filepath.Join(t.TempDir(), "c.ckpt")
	w, err := Create(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	w.FlushEvery = 1
	entered, release := gateSync(w)
	headLen := fileSize(t, path)
	writeRecords(t, w, []Entry{{1, 1}})
	<-entered
	oneFrame := fileSize(t, path) - headLen
	release <- nil
	writeRecords(t, w, []Entry{{2, 2}})
	<-entered // commit 2 is in its fsync
	writeRecords(t, w, []Entry{{3, 3}, {4, 4}})
	boom := errors.New("injected fsync failure")
	release <- boom
	<-w.done // the flusher gives up by itself

	if err := w.Append(5, 5); !errors.Is(err, boom) {
		t.Errorf("Append after the failed commit: %v, want the fsync error", err)
	}
	if err := w.Sync(); !errors.Is(err, boom) {
		t.Errorf("Sync after the failed commit: %v, want the fsync error", err)
	}
	if err := w.Close(); !errors.Is(err, boom) {
		t.Errorf("Close after the failed commit: %v, want the fsync error", err)
	}
	if got := fileSize(t, path) - headLen; got != 2*oneFrame {
		t.Errorf("file holds %d frame bytes, want the 2 frames written before the failure (%d)", got, 2*oneFrame)
	}
	_, got, err := Load(path)
	if err != nil || len(got) != 2 || got[1] != 1 || got[2] != 2 {
		t.Errorf("file holds %v (err %v), want classes 1 and 2", got, err)
	}
	settled()
}

// TestOpenInterruptedCreate: a file holding any proper prefix of this
// campaign's own magic and header is what a crash inside Create leaves,
// and Open starts it over; a foreign or garbage beginning is refused as
// before.
func TestOpenInterruptedCreate(t *testing.T) {
	dir := t.TempDir()
	h := testHeader()
	head := fileHead(h)
	path := filepath.Join(dir, "c.ckpt")
	for n := 0; n < len(head); n++ {
		if err := os.WriteFile(path, head[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		w, prior, err := Open(path, h)
		if err != nil {
			t.Fatalf("%d header bytes: %v", n, err)
		}
		if len(prior) != 0 {
			t.Fatalf("%d header bytes: %d prior records", n, len(prior))
		}
		writeRecords(t, w, []Entry{{7, 3}})
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if gotH, got, err := Load(path); err != nil || gotH != h || len(got) != 1 || got[7] != 3 {
			t.Fatalf("%d header bytes: restarted file loads %+v %v, err %v", n, gotH, got, err)
		}
	}

	other := h
	other.Identity[31] ^= 1
	foreign := fileHead(other)
	for name, tc := range map[string]struct {
		data []byte
		want error
	}{
		"foreign header":      {foreign, ErrIdentityMismatch},
		"torn foreign header": {foreign[:len(foreign)-1], ErrFormat},
		"garbage":             {[]byte("NOTACKPT"), ErrFormat},
		"magic, then garbage": {[]byte(magic + "garbage"), ErrFormat},
	} {
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(path, h); !errors.Is(err, tc.want) {
			t.Errorf("%s: Open: %v, want %v", name, err, tc.want)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, tc.data) {
			t.Errorf("%s: a refused file was modified", name)
		}
	}
}
