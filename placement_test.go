package faultspace

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"faultspace/internal/progs"
)

// serveAndJoin runs a distributed scan over loopback HTTP: ServeScan in
// this goroutine, nWorkers JoinScan workers in the background. The
// worker errors are reported through t. No worker asks for work before
// all have joined: ServeScan waits for every worker that has joined to
// fetch its done notice, and for none that has not, so a worker still on
// its way when the others finish a small campaign would find nobody.
func serveAndJoin(t *testing.T, prog *Program, opts ServeOptions, nWorkers int) *ScanResult {
	t.Helper()
	addrCh := make(chan string, 1)
	opts.OnListen = func(addr string) { addrCh <- addr }

	var wg, joined sync.WaitGroup
	wg.Add(nWorkers)
	joined.Add(nWorkers)
	workerErrs := make([]error, nWorkers)
	go func() {
		addr := <-addrCh
		for i := 0; i < nWorkers; i++ {
			go func(i int) {
				defer wg.Done()
				jopts := JoinOptions{WorkerID: string(rune('a' + i))}
				// The "joined" line follows the handshake and precedes the
				// first lease.
				var once sync.Once
				defer once.Do(joined.Done)
				jopts.Logf = func(format string, _ ...any) {
					if strings.Contains(format, "joined") {
						once.Do(joined.Done)
						joined.Wait()
					}
				}
				if i%2 == 1 { // mixed strategies across the cluster
					jopts.Strategy = StrategyRerun
				}
				workerErrs[i] = JoinScan(addr, jopts)
			}(i)
		}
	}()
	res, err := ServeScan(prog, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatalf("ServeScan: %v", err)
	}
	wg.Wait()
	for i, werr := range workerErrs {
		if werr != nil {
			t.Errorf("worker %d: %v", i, werr)
		}
	}
	return res
}

// TestPlacementEquivalenceAllBenchmarks is the distributed differential
// suite (invariant 8): for every bundled benchmark, a coordinator plus
// two loopback workers must produce a bit-identical outcome vector and
// an identical analysis to a local FullScan.
func TestPlacementEquivalenceAllBenchmarks(t *testing.T) {
	for _, name := range progs.Names() {
		t.Run(name, func(t *testing.T) {
			prog := equivProgram(t, name)
			local, err := Scan(prog, ScanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			distributed := serveAndJoin(t, prog, ServeOptions{
				UnitSize: 32,
			}, 2)
			assertSameOutcomes(t, "distributed vs local", local, distributed)
			if distributed.Identity != local.Identity {
				t.Error("distributed scan must keep the local campaign identity")
			}
			la, err := Analyze(local)
			if err != nil {
				t.Fatal(err)
			}
			da, err := Analyze(distributed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(la, da) {
				t.Errorf("analyses differ:\nlocal       %+v\ndistributed %+v", la, da)
			}
		})
	}
}

// TestServeScanDismissesEveryWorker is the drain contract of ServeScan:
// every worker that said hello is answered its dismissal before the
// listener closes — none of the three finds a closed port on its way out
// and burns its handshake retries into ErrCoordinatorUnreachable
// (serveAndJoin fails on any worker error) — and the drain is the round
// trips it takes, well inside 3 s.
func TestServeScanDismissesEveryWorker(t *testing.T) {
	prog := equivProgram(t, "sort1")
	var merged time.Time
	serveAndJoin(t, prog, ServeOptions{
		UnitSize: 16,
		OnClusterProgress: func(p ClusterProgress) {
			if p.Final {
				merged = time.Now()
			}
		},
	}, 3)
	took := time.Since(merged)
	t.Logf("ServeScan returned %v after the last merge", took)
	if took > time.Second {
		t.Errorf("ServeScan returned %v after the last merge; want well inside 3s", took)
	}
}

// TestPlacementEquivalenceCheckpointResume interrupts a distributed
// campaign via the coordinator's interrupt channel, then resumes it from
// the checkpoint with fresh workers: the merged result must be identical
// to a local scan, with no class executed twice.
func TestPlacementEquivalenceCheckpointResume(t *testing.T) {
	prog := equivProgram(t, "bin_sem2")
	local, err := Scan(prog, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ck := filepath.Join(t.TempDir(), "cluster.ckpt")

	// Phase 1: interrupt once half the classes are merged.
	ctx, intCh := context.WithCancel(context.Background())
	var once sync.Once
	opts := ServeOptions{
		ScanOptions: ScanOptions{
			Checkpoint:       ck,
			ProgressInterval: -1,
			Context:          ctx,
		},
		UnitSize: 8,
		OnClusterProgress: func(p ClusterProgress) {
			if p.Done >= p.Total/2 && p.Done > 0 {
				once.Do(intCh)
			}
		},
	}
	addrCh := make(chan string, 1)
	opts.OnListen = func(addr string) { addrCh <- addr }
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		addr := <-addrCh
		// The worker outlives the interrupted coordinator and must exit
		// cleanly on the shutdown notice (or bounded retries).
		// Shutdown notice during the drain window, or bounded-retry
		// exhaustion if the worker was mid-unit past it — both are clean
		// exits for a worker whose coordinator went away.
		err := JoinScan(addr, JoinOptions{WorkerID: "phase1"})
		if err != nil && !errors.Is(err, ErrCoordinatorShutdown) && !errors.Is(err, ErrCoordinatorUnreachable) {
			t.Errorf("phase-1 worker: %v", err)
		}
	}()
	partial, err := ServeScan(prog, "127.0.0.1:0", opts)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted ServeScan: err = %v, want ErrInterrupted", err)
	}
	if partial == nil {
		t.Fatal("interrupted ServeScan must return its partial result")
	}
	wg.Wait()

	// Phase 2: a fresh coordinator resumes from the checkpoint.
	sessionTotal := 0
	resumed := serveAndJoin(t, prog, ServeOptions{
		ScanOptions: ScanOptions{Checkpoint: ck, Resume: true},
		UnitSize:    8,
		OnClusterProgress: func(p ClusterProgress) {
			if p.Final {
				sessionTotal = p.Session
			}
		},
	}, 2)
	assertSameOutcomes(t, "resumed distributed vs local", local, resumed)
	if sessionTotal >= len(local.Outcomes) {
		t.Errorf("resumed session executed %d classes of %d — checkpointed work was redone", sessionTotal, len(local.Outcomes))
	}
}
