package service

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"faultspace/internal/frame"
)

func testID(b byte) [32]byte {
	var id [32]byte
	for i := range id {
		id[i] = b
	}
	return id
}

func TestEntryRoundtrip(t *testing.T) {
	reports := [][]byte{
		nil,
		[]byte("{}"),
		bytes.Repeat([]byte("x"), chunkSize-1),
		bytes.Repeat([]byte("y"), chunkSize),
		bytes.Repeat([]byte("z"), 3*chunkSize+17),
	}
	for i, report := range reports {
		id := testID(byte(i + 1))
		gotID, got, err := DecodeEntry(EncodeEntry(id, report))
		if err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
		if gotID != id {
			t.Fatalf("report %d: identity mangled", i)
		}
		if !bytes.Equal(got, report) {
			t.Fatalf("report %d: %d bytes back, want %d", i, len(got), len(report))
		}
	}
}

func TestEntryDamage(t *testing.T) {
	id := testID(7)
	good := EncodeEntry(id, bytes.Repeat([]byte("r"), 1000))

	if _, _, err := DecodeEntry(good[:len(good)-3]); !errors.Is(err, frame.ErrTruncated) {
		t.Errorf("torn tail: got %v, want ErrTruncated", err)
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0x40
	if _, _, err := DecodeEntry(flipped); !errors.Is(err, frame.ErrCorrupt) {
		t.Errorf("bit flip: got %v, want ErrCorrupt", err)
	}
	if _, _, err := DecodeEntry([]byte("NOTMAGIC" + "rest")); !errors.Is(err, ErrEntry) {
		t.Error("bad magic must be rejected")
	}
	if _, _, err := DecodeEntry(append(append([]byte(nil), good...), good...)); err == nil {
		t.Error("trailing bytes must be rejected")
	}
}

func TestStoreRoundtripAndRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	id := testID(1)
	report := []byte(`{"version":1}` + "\n")
	if err := st.Put(id, report); err != nil {
		t.Fatal(err)
	}
	// Write-once: a second Put is a no-op, not an error.
	if err := st.Put(id, report); err != nil {
		t.Fatal(err)
	}
	if got, ok := st.Get(id); !ok || !bytes.Equal(got, report) {
		t.Fatalf("Get = %q, %v", got, ok)
	}

	// Tear the entry's tail, as a crash mid-write would; reopening must
	// drop it so the campaign can be re-archived.
	path := st.path(id)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-4], 0o666); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.Get(id); ok {
		t.Fatal("torn entry must not survive reopen")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("torn entry file must be deleted, stat: %v", err)
	}
	if st2.Len() != 0 {
		t.Fatalf("store has %d entries after recovery, want 0", st2.Len())
	}
}

// TestEntryAssembledInPlace: DecodeEntry returns every report inside the
// storage of the bytes it was given — one of several data frames moved
// over the frame headers before it — so a hit costs one buffer.
func TestEntryAssembledInPlace(t *testing.T) {
	for _, size := range []int{1, chunkSize, chunkSize + 1, 3*chunkSize + 17} {
		report := make([]byte, size)
		for i := range report {
			report[i] = byte(i % 251)
		}
		data := EncodeEntry(testID(5), report)
		_, got, err := DecodeEntry(data)
		if err != nil {
			t.Fatalf("%d bytes: %v", size, err)
		}
		if !bytes.Equal(got, report) {
			t.Fatalf("%d bytes: report differs after assembly", size)
		}
		// The first data frame's payload stays where it is; the rest follow it.
		frames := (size + chunkSize - 1) / chunkSize
		if &got[0] != &data[len(data)-size-(frames-1)*frame.HeaderLen] {
			t.Errorf("%d bytes: report is not assembled inside the entry's bytes", size)
		}
	}
}

// TestStoreOpenReadsHeads: OpenStore indexes entries by their head and
// size, so a report damaged at the same size is indexed; the first Get
// checks its CRCs, answers a miss and drops it. Files whose head or name
// is wrong are still deleted at open.
func TestStoreOpenReadsHeads(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	good, damaged := testID(1), testID(2)
	report := bytes.Repeat([]byte("r"), chunkSize+100) // two data frames
	for _, id := range [][32]byte{good, damaged} {
		if err := st.Put(id, report); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(st.path(damaged))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-10] ^= 0x01 // a payload byte of the second data frame
	if err := os.WriteFile(st.path(damaged), data, 0o666); err != nil {
		t.Fatal(err)
	}
	foreign := filepath.Join(dir, "foreign"+entryExt)
	if err := os.WriteFile(foreign, []byte("not an archive entry"), 0o666); err != nil {
		t.Fatal(err)
	}
	misID := testID(9)
	misnamed := filepath.Join(dir, hex.EncodeToString(misID[:])+entryExt)
	if err := os.WriteFile(misnamed, EncodeEntry(testID(3), report), 0o666); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{foreign, misnamed} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s must be deleted at open, stat: %v", filepath.Base(path), err)
		}
	}
	size := st2.Size()
	if st2.Len() != 2 || size != 2*int64(len(data)) {
		t.Fatalf("after open: %d entries, %d bytes; want the good and the damaged one, %d bytes", st2.Len(), size, 2*len(data))
	}
	if _, ok := st2.Get(damaged); ok {
		t.Fatal("damaged report served")
	}
	if _, err := os.Stat(st2.path(damaged)); !os.IsNotExist(err) {
		t.Errorf("damaged entry must be deleted by the Get that found it, stat: %v", err)
	}
	if st2.Len() != 1 || st2.Size() != size-int64(len(data)) {
		t.Errorf("after the miss: %d entries, %d bytes; want 1, %d", st2.Len(), st2.Size(), size-int64(len(data)))
	}
	if got, ok := st2.Get(good); !ok || !bytes.Equal(got, report) {
		t.Errorf("good entry: hit %v, %d bytes", ok, len(got))
	}
}

// BenchmarkStoreOpen opens an archive of 64 entries: with 4 KiB and with
// 512 KiB reports the time is the same, that of reading 64 heads.
func BenchmarkStoreOpen(b *testing.B) {
	for _, size := range []int{4 << 10, 512 << 10} {
		b.Run(fmt.Sprintf("report=%dKiB", size>>10), func(b *testing.B) {
			dir := b.TempDir()
			report := bytes.Repeat([]byte("r"), size)
			for i := 0; i < 64; i++ {
				var id [32]byte
				id[0], id[1] = byte(i), 0xa5
				if err := os.WriteFile(filepath.Join(dir, hex.EncodeToString(id[:])+entryExt), EncodeEntry(id, report), 0o666); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := OpenStore(dir, 0)
				if err != nil || st.Len() != 64 {
					b.Fatalf("OpenStore: %d entries, err %v", st.Len(), err)
				}
			}
		})
	}
}

func TestStoreLRUEviction(t *testing.T) {
	dir := t.TempDir()
	report := bytes.Repeat([]byte("r"), 256)
	one := EncodeEntry(testID(1), report)
	// Cap fits two entries but not three.
	st, err := OpenStore(dir, int64(2*len(one)))
	if err != nil {
		t.Fatal(err)
	}
	for b := byte(1); b <= 2; b++ {
		if err := st.Put(testID(b), report); err != nil {
			t.Fatal(err)
		}
	}
	// Touch entry 1 so entry 2 is the least recently used.
	if _, ok := st.Get(testID(1)); !ok {
		t.Fatal("entry 1 missing before eviction")
	}
	if err := st.Put(testID(3), report); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(testID(2)); ok {
		t.Error("LRU entry 2 must have been evicted")
	}
	for _, b := range []byte{1, 3} {
		if _, ok := st.Get(testID(b)); !ok {
			t.Errorf("entry %d must survive eviction", b)
		}
	}
	if got := st.evicted(); got != 1 {
		t.Errorf("evicted() = %d, want 1", got)
	}
	if st.Size() > int64(2*len(one)) {
		t.Errorf("size %d exceeds cap %d after eviction", st.Size(), 2*len(one))
	}
	// A single entry larger than the cap is still archived (no thrash),
	// evicting everything else.
	big := bytes.Repeat([]byte("B"), 3*len(one))
	if err := st.Put(testID(4), big); err != nil {
		t.Fatal(err)
	}
	if got, ok := st.Get(testID(4)); !ok || !bytes.Equal(got, big) {
		t.Error("oversized entry must be kept")
	}
}

func TestStoreRecencySurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	report := []byte("report")
	for b := byte(1); b <= 2; b++ {
		if err := st.Put(testID(b), report); err != nil {
			t.Fatal(err)
		}
	}
	// Make entry 1 clearly most recent on disk (mtime granularity).
	old := time.Now().Add(-time.Hour)
	os.Chtimes(st.path(testID(2)), old, old)

	st2, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	st2.mu.Lock()
	e1, e2 := st2.entries[testID(1)], st2.entries[testID(2)]
	st2.mu.Unlock()
	if e1 == nil || e2 == nil {
		t.Fatal("entries lost across reopen")
	}
	if e1.used <= e2.used {
		t.Error("mtime-seeded LRU order lost across reopen")
	}
}

// TestPutFailedWriteLeavesNothing makes the entry's temp file a symlink
// to /dev/full, so the write fails with ENOSPC: Put must report it, and
// neither a file nor an index entry may be left behind.
func TestPutFailedWriteLeavesNothing(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	dir := t.TempDir()
	st, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	id := testID(9)
	if err := os.Symlink("/dev/full", st.path(id)+".tmp"); err != nil {
		t.Fatal(err)
	}
	// No Get below: were the torn entry indexed, reading it back would
	// read /dev/full, which never ends.
	if err := st.Put(id, []byte(`{"version":1}`)); err == nil {
		t.Error("Put onto a full device returned nil")
	}
	if st.Len() != 0 || st.Size() != 0 {
		t.Errorf("failed Put was indexed: %d entries, %d bytes", st.Len(), st.Size())
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("failed Put left %d files behind, first %q", len(left), left[0].Name())
	}
}

// FuzzArchiveEntryDecode hammers the archive entry decoder with
// arbitrary bytes: it must never panic and never round-trip damaged
// input into a successful decode with a different identity or report.
func FuzzArchiveEntryDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(storeMagic))
	f.Add(EncodeEntry(testID(1), nil))
	f.Add(EncodeEntry(testID(2), []byte(`{"version":1}`)))
	f.Add(EncodeEntry(testID(3), bytes.Repeat([]byte("x"), 4096)))
	f.Fuzz(func(t *testing.T, data []byte) {
		id, report, err := DecodeEntry(data)
		if err != nil {
			return
		}
		// Whatever decoded must survive a re-encode/re-decode cycle
		// intact — the store's Put(Get(...)) path depends on it.
		id2, report2, err := DecodeEntry(EncodeEntry(id, report))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if id2 != id || !bytes.Equal(report2, report) {
			t.Fatal("entry mutated across encode/decode cycle")
		}
	})
}
