package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"faultspace"
	"faultspace/internal/progs"
)

// TestMain doubles the test binary as the favserve executable: with
// FAVSERVE_CHILD=1 it runs a real favserve invocation instead of the
// test suite, so the drain test can SIGINT an actual child process.
func TestMain(m *testing.M) {
	if os.Getenv("FAVSERVE_CHILD") == "1" {
		if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "favserve:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestRejectsPositionalArgs(t *testing.T) {
	if err := run([]string{"hi"}, io.Discard, io.Discard); err == nil {
		t.Fatal("positional arguments must be rejected")
	}
}

// TestRejectsShortLease: a lease TTL whose third is no ticker period is
// refused at start-up, not per campaign.
func TestRejectsShortLease(t *testing.T) {
	err := run([]string{"-addr", "127.0.0.1:0", "-lease", "2ns"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "lease TTL too short") {
		t.Fatalf("run -lease 2ns: err = %v", err)
	}
}

// syncBuffer collects child stderr safely across goroutines.
type syncBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

var listenRE = regexp.MustCompile(`favserve: serving campaigns on (\S+)`)

// startChild launches the test binary as a real favserve process and
// waits for it to announce its bound address on stderr.
func startChild(t *testing.T, dir string) (*exec.Cmd, *syncBuffer, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	child := exec.Command(exe, "-addr", "127.0.0.1:0", "-workers", "1", "-archive", dir)
	child.Env = append(os.Environ(), "FAVSERVE_CHILD=1")
	stderr := &syncBuffer{}
	child.Stdout = io.Discard
	child.Stderr = stderr
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { child.Process.Kill() })
	deadline := time.Now().Add(30 * time.Second)
	for {
		if m := listenRE.FindStringSubmatch(stderr.String()); m != nil {
			return child, stderr, m[1]
		}
		if time.Now().After(deadline) {
			t.Fatalf("child never announced its address; stderr:\n%s", stderr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// drainChild SIGINTs a favserve child and asserts the graceful-drain
// contract: exit status zero plus the drain messages on stderr.
func drainChild(t *testing.T, child *exec.Cmd, stderr *syncBuffer) {
	t.Helper()
	if err := child.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- child.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("child exited non-zero after SIGINT: %v; stderr:\n%s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		child.Process.Kill()
		t.Fatalf("child did not drain within 30s; stderr:\n%s", stderr.String())
	}
	out := stderr.String()
	if !strings.Contains(out, "favserve: interrupt — draining") {
		t.Errorf("child stderr does not mention draining:\n%s", out)
	}
	if !strings.Contains(out, "favserve: drained") {
		t.Errorf("child stderr does not confirm the drain:\n%s", out)
	}
}

// TestServeSubmitSIGINTDrain is the service acceptance test, mirroring
// the favscan checkpoint SIGINT test: a real favserve child process with
// one in-process worker serves a submitted campaign and exits zero on
// SIGINT after draining; a second child over the same archive directory
// answers the re-submitted campaign from the archive without executing
// anything.
func TestServeSubmitSIGINTDrain(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("relies on SIGINT delivery")
	}
	dir := t.TempDir()
	child, stderr, addr := startChild(t, dir)

	spec, err := progs.Resolve("hi", progs.Sizes{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := spec.Baseline()
	if err != nil {
		t.Fatal(err)
	}

	// First submission executes on the child's worker.
	info, err := faultspace.SubmitCampaign(addr, prog, faultspace.ScanOptions{}, "alice")
	if err != nil {
		t.Fatalf("submit: %v; child stderr:\n%s", err, stderr.String())
	}
	if !info.Terminal() {
		info, err = faultspace.WaitCampaign(addr, info.ID, 20*time.Millisecond, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	if info.State != "done" || info.Cached {
		t.Fatalf("first run: state %s cached %v, want a live done", info.State, info.Cached)
	}
	live, err := faultspace.CampaignReport(addr, info.ID)
	if err != nil {
		t.Fatal(err)
	}

	// A duplicate to the same live service is answered idempotently from
	// the in-memory entry, already done.
	again, err := faultspace.SubmitCampaign(addr, prog, faultspace.ScanOptions{}, "bob")
	if err != nil {
		t.Fatal(err)
	}
	if again.State != "done" || again.ID != info.ID {
		t.Fatalf("duplicate: state %s id %.12s, want the completed campaign", again.State, again.ID)
	}

	// The archive must hold the entry on disk.
	entries, err := filepath.Glob(filepath.Join(dir, "*.far"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("archive dir holds %d entries (%v), want 1", len(entries), err)
	}

	// SIGINT: the child drains and exits zero.
	drainChild(t, child, stderr)

	// A fresh service over the same archive answers the re-submitted
	// campaign from disk: done immediately, marked cached, and its
	// report reconstructs to the same outcomes without executing a
	// single experiment (invariant 12, end to end through the CLI).
	child2, stderr2, addr2 := startChild(t, dir)
	cachedInfo, err := faultspace.SubmitCampaign(addr2, prog, faultspace.ScanOptions{}, "bob")
	if err != nil {
		t.Fatal(err)
	}
	if cachedInfo.State != "done" || !cachedInfo.Cached {
		t.Fatalf("resubmit after restart: state %s cached %v, want done from archive",
			cachedInfo.State, cachedInfo.Cached)
	}
	cached, err := faultspace.CampaignReport(addr2, cachedInfo.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(cached.Outcomes) != len(live.Outcomes) {
		t.Fatalf("cached report has %d outcomes, live %d", len(cached.Outcomes), len(live.Outcomes))
	}
	for i := range live.Outcomes {
		if cached.Outcomes[i] != live.Outcomes[i] {
			t.Fatalf("cached outcome %d differs from live", i)
		}
	}
	drainChild(t, child2, stderr2)
}
