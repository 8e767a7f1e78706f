package faultspace

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"faultspace/internal/progs"
)

func scanHi(t *testing.T, opts ScanOptions) *ScanResult {
	t.Helper()
	p, err := progs.Hi().Baseline()
	if err != nil {
		t.Fatal(err)
	}
	scan, err := Scan(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return scan
}

func TestScanArchiveRoundTrip(t *testing.T) {
	for _, space := range []SpaceKind{SpaceMemory, SpaceRegisters} {
		scan := scanHi(t, ScanOptions{Space: space})
		var buf bytes.Buffer
		if err := SaveScan(&buf, scan); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadScan(&buf)
		if err != nil {
			t.Fatal(err)
		}

		orig := MustAnalyze(scan)
		got := MustAnalyze(loaded)
		if got != orig {
			t.Errorf("%s: analysis after round trip differs:\n got %+v\nwant %+v", space, got, orig)
		}
		if len(loaded.Outcomes) != len(scan.Outcomes) {
			t.Fatalf("outcome count differs")
		}
		for i := range scan.Outcomes {
			if loaded.Outcomes[i] != scan.Outcomes[i] {
				t.Fatalf("outcome %d differs", i)
			}
		}
		// Locate still works on the reconstructed space.
		c := loaded.Space.Classes[0]
		ci, ok, err := loaded.Space.Locate(c.Slot(), c.Bit)
		if err != nil || !ok || ci != 0 {
			t.Errorf("Locate on loaded space: ci=%d ok=%v err=%v", ci, ok, err)
		}
	}
}

func TestLoadScanRejectsGarbage(t *testing.T) {
	const valid = `{"version":1,"name":"x","space":"memory","cycles":10,"bits":1,
	  "knownNoEffect":5,"classes":[{"b":0,"d":0,"u":5,"o":0}]}`
	if _, err := LoadScan(strings.NewReader(valid)); err != nil {
		t.Fatalf("valid archive: %v", err)
	}
	cases := []string{
		``,
		`not json`,
		`{"version":99}`,
		`{"version":1,"space":"plutonium","cycles":1,"bits":8}`,
		// Partition violation: class weights don't add up.
		`{"version":1,"name":"x","space":"memory","cycles":10,"bits":8,
		  "knownNoEffect":0,"classes":[{"b":0,"d":0,"u":5,"o":0}]}`,
		// Unknown outcome code.
		`{"version":1,"name":"x","space":"memory","cycles":10,"bits":1,
		  "knownNoEffect":5,"classes":[{"b":0,"d":0,"u":5,"o":200}]}`,
		// Out-of-order classes (outcome pairing would be silently wrong).
		`{"version":1,"name":"x","space":"memory","cycles":10,"bits":2,
		  "knownNoEffect":8,"classes":[{"b":1,"d":0,"u":6,"o":0},{"b":0,"d":0,"u":6,"o":0}]}`,
		// Trailing data: only the first value used to be read.
		valid + "\n" + valid,
		valid + " garbage",
	}
	for i, src := range cases {
		if _, err := LoadScan(strings.NewReader(src)); err == nil {
			t.Errorf("case %d: LoadScan accepted invalid archive", i)
		}
	}
}

func TestSaveScanValidates(t *testing.T) {
	scan := scanHi(t, ScanOptions{})
	scan.Outcomes = scan.Outcomes[:1] // corrupt the pairing
	var buf bytes.Buffer
	if err := SaveScan(&buf, scan); err == nil {
		t.Error("SaveScan must reject mismatched outcome counts")
	}
}

// TestPartialResultRefused: the partial result an interrupted scan
// returns — its unrun classes read as "No Effect" — can be neither
// archived nor analyzed, and resuming it archives to the bytes of an
// uninterrupted scan.
func TestPartialResultRefused(t *testing.T) {
	prog, err := progs.Sort1(10).Baseline()
	if err != nil {
		t.Fatal(err)
	}
	full, err := Scan(prog, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Pending != 0 {
		t.Errorf("complete scan: Pending = %d", full.Pending)
	}

	ck := filepath.Join(t.TempDir(), "scan.ckpt")
	ctx, interrupt := context.WithCancel(context.Background())
	var once sync.Once
	partial, err := Scan(prog, ScanOptions{
		Checkpoint:       ck,
		ProgressInterval: -1,
		OnProgress: func(p Progress) {
			if p.Done >= p.Total/3 && p.Done > 0 {
				once.Do(interrupt)
			}
		},
		Context: ctx,
	})
	if !errors.Is(err, ErrInterrupted) || partial == nil {
		t.Fatalf("interrupted scan: result %v, err = %v", partial, err)
	}
	if n := len(partial.Outcomes); partial.Pending <= 0 || partial.Pending > n-n/3 {
		t.Errorf("partial result: %d of %d classes pending, interrupted after a third", partial.Pending, n)
	}
	var buf bytes.Buffer
	if err := SaveScan(&buf, partial); !errors.Is(err, ErrPartialResult) || buf.Len() != 0 {
		t.Errorf("SaveScan of a partial result: err = %v, %d bytes written", err, buf.Len())
	}
	if _, err := Analyze(partial); !errors.Is(err, ErrPartialResult) {
		t.Errorf("Analyze of a partial result: err = %v", err)
	}

	resumed, err := Scan(prog, ScanOptions{Checkpoint: ck, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Pending != 0 {
		t.Errorf("resumed scan: Pending = %d", resumed.Pending)
	}
	if !bytes.Equal(scanBytes(t, resumed), scanBytes(t, full)) {
		t.Error("resumed archive is not byte-identical to an uninterrupted scan's")
	}
}
