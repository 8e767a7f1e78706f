package faultspace

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"faultspace/internal/checkpoint"
	"faultspace/internal/progs"
)

// TestCheckpointBytesPinned holds the checkpoint file to the bytes the
// synchronous writer produced (SHA-256 recorded at commit bff44a3, where
// every frame was written and fsynced inside OnResult): committing in the
// background changes when a frame reaches the disk, never which frames
// there are. A single worker delivers in class order, so its file is
// pinned whole; two workers interleave their deliveries, so their file is
// held to the same class→outcome map.
func TestCheckpointBytesPinned(t *testing.T) {
	prog, err := progs.Sort1(10).Baseline()
	if err != nil {
		t.Fatal(err)
	}
	scan := func(workers int) []byte {
		t.Helper()
		ck := filepath.Join(t.TempDir(), "scan.ckpt")
		if _, err := Scan(prog, ScanOptions{Workers: workers, Predecode: true, Checkpoint: ck}); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(ck)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	one := scan(1)
	const want = "d8b5d583df086e821e5239ca36547a36bc71ddf1ef64ea21bc9df6d4240533d0"
	if got := fmt.Sprintf("%x", sha256.Sum256(one)); len(one) != 9650 || got != want {
		t.Errorf("single-worker checkpoint: %d bytes, SHA-256 %s, want 9650 bytes, %s", len(one), got, want)
	}
	outcomes := func(data []byte) map[int]uint8 {
		t.Helper()
		_, entries, err := checkpoint.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		m := make(map[int]uint8, len(entries))
		for _, e := range entries {
			if _, dup := m[e.Class]; dup {
				t.Fatalf("class %d recorded twice", e.Class)
			}
			m[e.Class] = e.Outcome
		}
		return m
	}
	if !reflect.DeepEqual(outcomes(scan(2)), outcomes(one)) {
		t.Error("two workers' checkpoint decodes to other outcomes than one worker's")
	}
}
