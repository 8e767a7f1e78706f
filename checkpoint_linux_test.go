package faultspace

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"testing"

	"faultspace/internal/leakcheck"
	"faultspace/internal/progs"
)

// fillDisk makes every further write to the open file at path fail with
// ENOSPC, as a disk filling up under a running campaign does: it finds
// the process's descriptor for the file and points it at /dev/full.
func fillDisk(path string) error {
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer full.Close()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return err
	}
	for _, e := range fds {
		if target, _ := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); target != path {
			continue
		}
		fd, err := strconv.Atoi(e.Name())
		if err != nil {
			return err
		}
		return syscall.Dup3(int(full.Fd()), fd, 0)
	}
	return fmt.Errorf("no open descriptor for %s", path)
}

// needFillDisk skips the test where fillDisk has nothing to work with.
func needFillDisk(t *testing.T) {
	t.Helper()
	for _, path := range []string{"/dev/full", "/proc/self/fd"} {
		if _, err := os.Stat(path); err != nil {
			t.Skip(err)
		}
	}
}

// deadCheckpointWindows is how many 256-record flush windows a scan may
// still run after its checkpoint died: one to seal the frame whose commit
// fails, the rest for the flusher and the workers to be scheduled.
const deadCheckpointWindows = 8

// TestScanStopsOnDeadCheckpoint: a checkpoint that can no longer be
// written stops the scan within a few flush windows — not at Close, after
// a whole campaign nobody recorded — and the scan ends with the
// checkpoint's error, not with the interrupt that stopped it.
func TestScanStopsOnDeadCheckpoint(t *testing.T) {
	needFillDisk(t)
	settled := leakcheck.Goroutines(t)
	prog, err := progs.Sort1(24).Baseline()
	if err != nil {
		t.Fatal(err)
	}
	ck := filepath.Join(t.TempDir(), "scan.ckpt")
	var total, ran int
	var once sync.Once
	var fillErr error
	res, err := Scan(prog, ScanOptions{
		Workers:          2,
		Checkpoint:       ck,
		Context:          context.Background(), // never cancelled: the stop is the checkpoint's
		ProgressInterval: -1,
		OnProgress: func(p Progress) {
			total, ran = p.Total, p.Session
			if p.Session > 0 {
				once.Do(func() { fillErr = fillDisk(ck) })
			}
		},
	})
	if fillErr != nil {
		t.Fatal(fillErr)
	}
	if !errors.Is(err, syscall.ENOSPC) || errors.Is(err, ErrInterrupted) || res != nil {
		t.Fatalf("Scan on a full disk: result %v, err %v, want no result and ENOSPC", res != nil, err)
	}
	t.Logf("ran %d of %d", ran, total)
	if limit := deadCheckpointWindows * 256; total < 4*limit || ran > limit {
		t.Errorf("scan ran %d of %d experiments after its checkpoint died, want at most %d", ran, total, limit)
	}
	settled()
}

// TestServeScanStopsOnDeadCheckpoint is the same promise for a
// distributed scan: the coordinator stops granting leases and ServeScan
// returns the checkpoint's error.
func TestServeScanStopsOnDeadCheckpoint(t *testing.T) {
	needFillDisk(t)
	prog, err := progs.Sort1(24).Baseline()
	if err != nil {
		t.Fatal(err)
	}
	ck := filepath.Join(t.TempDir(), "cluster.ckpt")
	var total, merged int
	worker := make(chan error, 1)
	res, err := ServeScan(prog, "127.0.0.1:0", ServeOptions{
		ScanOptions: ScanOptions{Checkpoint: ck, ProgressInterval: -1},
		UnitSize:    64,
		OnClusterProgress: func(p ClusterProgress) {
			total, merged = p.Total, p.Session
		},
		OnListen: func(addr string) { // on this goroutine
			if err := fillDisk(ck); err != nil {
				t.Fatal(err)
			}
			go func() { worker <- JoinScan(addr, JoinOptions{WorkerID: "w", Workers: 1}) }()
		},
	})
	if !errors.Is(err, syscall.ENOSPC) || errors.Is(err, ErrInterrupted) || res != nil {
		t.Fatalf("ServeScan on a full disk: result %v, err %v, want no result and ENOSPC", res != nil, err)
	}
	t.Logf("merged %d of %d", merged, total)
	if limit := deadCheckpointWindows * 256; total < 4*limit || merged > limit {
		t.Errorf("coordinator merged %d of %d classes after its checkpoint died, want at most %d", merged, total, limit)
	}
	if werr := <-worker; werr != nil && !errors.Is(werr, ErrCoordinatorShutdown) && !errors.Is(werr, ErrCoordinatorUnreachable) {
		t.Errorf("worker: %v", werr)
	}
}
