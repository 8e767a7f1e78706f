package main

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"faultspace"
	"faultspace/internal/checkpoint"
)

// TestMain doubles the test binary as the favscan executable: with
// FAVSCAN_CHILD=1 it runs a real favscan invocation instead of the test
// suite, so the kill/resume test can SIGINT an actual child process.
func TestMain(m *testing.M) {
	if os.Getenv("FAVSCAN_CHILD") == "1" {
		if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "favscan:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runScan(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb, io.Discard); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return sb.String()
}

func TestFullScanHi(t *testing.T) {
	out := runScan(t, "hi")
	for _, want := range []string{
		"fault-space size w", "128",
		"failures, weighted (the paper's F)", "48",
		"coverage, weighted", "0.6250",
		"SDC",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestOutcomeDump(t *testing.T) {
	out := runScan(t, "-outcomes", "hi")
	if !strings.Contains(out, "Per-class outcomes") {
		t.Fatalf("missing outcome dump:\n%s", out)
	}
	// 16 classes plus headers.
	if got := strings.Count(out, "SDC"); got < 16 {
		t.Errorf("expected >= 16 SDC rows, got %d", got)
	}
}

func TestSamplingModes(t *testing.T) {
	raw := runScan(t, "-sample", "300", "-seed", "2", "hi")
	if !strings.Contains(raw, "mode raw") || !strings.Contains(raw, "extrapolated failures") {
		t.Errorf("raw sampling output wrong:\n%s", raw)
	}
	biased := runScan(t, "-sample", "300", "-biased", "hi")
	if !strings.Contains(biased, "classes(biased)") {
		t.Errorf("biased sampling output wrong:\n%s", biased)
	}
	eff := runScan(t, "-sample", "300", "-effective", "hi")
	if !strings.Contains(eff, "mode effective") {
		t.Errorf("effective sampling output wrong:\n%s", eff)
	}
}

func TestRerunStrategyFlag(t *testing.T) {
	a := runScan(t, "hi")
	b := runScan(t, "-strategy", "rerun", "hi")
	if a != b {
		t.Error("rerun strategy must not change scan results")
	}
}

func TestCSV(t *testing.T) {
	out := runScan(t, "-csv", "hi")
	if !strings.Contains(out, "metric,value") {
		t.Errorf("CSV output wrong:\n%s", out)
	}
}

func TestSaveAndLoadArchive(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "hi.scan.json")
	saved := runScan(t, "-save", path, "hi")
	if !strings.Contains(saved, "archive written") {
		t.Fatalf("save output wrong:\n%s", saved)
	}
	loaded := runScan(t, "-load", path)
	for _, want := range []string{"hi/baseline", "128", "48", "0.6250"} {
		if !strings.Contains(loaded, want) {
			t.Errorf("loaded analysis missing %q:\n%s", want, loaded)
		}
	}
	var sb strings.Builder
	if err := run([]string{"-load", path, "hi"}, &sb, io.Discard); err == nil {
		t.Error("-load with a benchmark argument must fail")
	}
	if err := run([]string{"-load", filepath.Join(dir, "missing.json")}, &sb, io.Discard); err == nil {
		t.Error("-load of a missing file must fail")
	}
}

func TestCheckpointFlagValidation(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-resume", "hi"}, &sb, io.Discard); err == nil {
		t.Error("-resume without -checkpoint must fail")
	}
	ck := filepath.Join(t.TempDir(), "c.ckpt")
	for _, mode := range [][]string{{"-sample", "10", "hi"}, {"-load", "x.json"}} {
		err := run(append([]string{"-checkpoint", ck}, mode...), &sb, io.Discard)
		if want := "-checkpoint does not apply to " + mode[0]; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("-checkpoint with %s: err = %v, want %q", mode[0], err, want)
		}
	}
}

func TestProgressOutput(t *testing.T) {
	var out, prog strings.Builder
	if err := run([]string{"-progress", "hi"}, &out, &prog); err != nil {
		t.Fatal(err)
	}
	p := prog.String()
	if !strings.Contains(p, "progress: 0/16 classes") {
		t.Errorf("missing initial progress line:\n%s", p)
	}
	if !strings.Contains(p, "scan finished: 16/16 classes (100.0%)") {
		t.Errorf("missing final summary line:\n%s", p)
	}
	if strings.Contains(out.String(), "progress") {
		t.Error("progress chatter leaked into the stdout report")
	}
}

// TestCheckpointCreateThenResume exercises the checkpoint path without a
// kill: a completed campaign's checkpoint resumes as a no-op with a
// byte-identical report, a fresh -checkpoint refuses to overwrite it, and
// -resume with a different program is rejected by the identity hash.
func TestCheckpointCreateThenResume(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "hi.ckpt")
	first := runScan(t, "-checkpoint", ck, "hi")
	resumed := runScan(t, "-checkpoint", ck, "-resume", "hi")
	if first != resumed {
		t.Errorf("no-op resume changed the report:\n--- first ---\n%s--- resumed ---\n%s", first, resumed)
	}
	var sb strings.Builder
	if err := run([]string{"-checkpoint", ck, "hi"}, &sb, io.Discard); err == nil {
		t.Error("-checkpoint must refuse an existing file without -resume")
	}
	if err := run([]string{"-checkpoint", ck, "-resume", "sort1"}, &sb, io.Discard); err == nil {
		t.Error("-resume with a different campaign must fail the identity check")
	}
}

// TestKillAndResumeByteIdentical is the acceptance test for crash-safe
// campaigns: a real favscan child process is interrupted with SIGINT
// mid-scan, then the campaign is resumed from its checkpoint, and the
// resumed report must be byte-identical to an uninterrupted run's. The
// child scans with the slow rerun strategy so the interrupt reliably
// lands mid-run; the resume switches back to the default fork strategy,
// which the campaign identity deliberately permits.
func TestKillAndResumeByteIdentical(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("relies on SIGINT delivery")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	ck := filepath.Join(t.TempDir(), "sort1.ckpt")
	campaign := []string{"-workers", "1", "-sort-elements", "48", "sort1"}

	child := exec.Command(exe, append([]string{"-checkpoint", ck, "-progress", "-strategy", "rerun"}, campaign...)...)
	child.Env = append(os.Environ(), "FAVSCAN_CHILD=1")
	var childErr strings.Builder
	child.Stdout = io.Discard
	child.Stderr = &childErr
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait until at least one record frame has been flushed (the header
	// alone is 61 bytes; a flushed frame adds hundreds), then interrupt.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if fi, err := os.Stat(ck); err == nil && fi.Size() > 200 {
			break
		}
		if time.Now().After(deadline) {
			child.Process.Kill()
			t.Fatalf("checkpoint never grew past its header; child stderr:\n%s", childErr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := child.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := child.Wait(); err == nil {
		t.Fatalf("child completed before the interrupt landed; stderr:\n%s", childErr.String())
	}
	if !strings.Contains(childErr.String(), "interrupt") {
		t.Errorf("child stderr does not mention the interrupt:\n%s", childErr.String())
	}

	h, prior, err := checkpoint.Load(ck)
	if err != nil {
		t.Fatalf("checkpoint after SIGINT must be valid: %v", err)
	}
	if len(prior) == 0 || uint64(len(prior)) >= h.Classes {
		t.Fatalf("checkpoint holds %d/%d classes, want a proper partial campaign", len(prior), h.Classes)
	}
	t.Logf("child interrupted after %d/%d classes", len(prior), h.Classes)

	resumed := runScan(t, append([]string{"-checkpoint", ck, "-resume"}, campaign...)...)
	reference := runScan(t, campaign...)
	if resumed != reference {
		t.Errorf("resumed report differs from uninterrupted run:\n--- resumed ---\n%s--- reference ---\n%s",
			resumed, reference)
	}
}

// TestFlagValidationUpfront: enumerated and mutually-exclusive flags must
// fail before any campaign work starts, with errors that name the valid
// options.
func TestFlagValidationUpfront(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-space", "cache", "hi"}, "valid: memory, registers"},
		{[]string{"-strategy", "quantum", "hi"}, "valid: fork, rerun"},
		{[]string{"-strategy", "snapshot", "hi"}, "valid: fork, rerun"},
		{[]string{"-strategy", "ladder", "hi"}, "valid: fork, rerun"},
		{[]string{"-serve", "127.0.0.1:0", "-lease", "2ns", "hi"}, "lease TTL too short"},
		{[]string{"-join", "x:1", "hi"}, "-join takes no benchmark argument"},
		{[]string{"-fleet", "x:1"}, "flag provided but not defined"},
		// One mode at a time, and only the flags that mean something in it.
		{[]string{"-serve", ":0", "-join", "x:1", "hi"}, "-join does not apply to -serve"},
		{[]string{"-serve", ":0", "-submit", "x:1", "hi"}, "-submit does not apply to -serve"},
		{[]string{"-join", "x:1", "-submit", "x:1"}, "-submit does not apply to -join"},
		{[]string{"-serve", ":0", "-sample", "10", "hi"}, "-sample does not apply to -serve"},
		{[]string{"-serve", ":0", "-load", "x.json"}, "-load does not apply to -serve"},
		{[]string{"-join", "x:1", "-checkpoint", "c.ckpt"}, "-checkpoint does not apply to -join"},
		{[]string{"-join", "x:1", "-sample", "10"}, "-sample does not apply to -join"},
		{[]string{"-join", "x:1", "-load", "x.json"}, "-load does not apply to -join"},
		{[]string{"-join", "x:1", "-save", "x.json"}, "-save does not apply to -join"},
		{[]string{"-join", "x:1", "-outcomes"}, "-outcomes does not apply to -join"},
		{[]string{"-submit", "x:1", "-sample", "10", "hi"}, "-sample does not apply to -submit"},
		{[]string{"-submit", "x:1", "-load", "x.json"}, "-load does not apply to -submit"},
		{[]string{"-submit", "x:1", "-checkpoint", "c.ckpt", "hi"}, "-checkpoint does not apply to -submit"},
		{[]string{"-submit", "x:1", "-telemetry", "t.json", "hi"}, "-telemetry does not apply to -submit"},
		{[]string{"-tenant", "alice", "hi"}, "-tenant does not apply to a local full scan"},
		{[]string{"-pprof", "hi"}, "flag provided but not defined: -pprof"},
		{[]string{"-telemetry", "t.json", "-sample", "10", "hi"}, "-telemetry does not apply to -sample"},
		{[]string{"-telemetry", "t.json", "-load", "x.json"}, "-telemetry does not apply to -load"},
		{[]string{"-telemetry", "t.json", "-join", "x:1"}, "-telemetry does not apply to -join"},
		{[]string{"-trace", "t.json", "-sample", "10", "hi"}, "-trace does not apply to -sample"},
		{[]string{"-trace", "t.json", "-load", "x.json"}, "-trace does not apply to -load"},
		{[]string{"-trace", "t.json", "-join", "x:1"}, "-trace does not apply to -join"},
		{[]string{"-trace", "t.json", "-submit", "x:1", "hi"}, "-trace does not apply to -submit"},
		{[]string{"-metrics", ":0", "-load", "x.json"}, "-metrics does not apply to -load"},
		{[]string{"-metrics", ":0", "-submit", "x:1", "hi"}, "-metrics does not apply to -submit"},
	} {
		err := run(tc.args, io.Discard, io.Discard)
		if err == nil {
			t.Errorf("run(%v): expected an error mentioning %q", tc.args, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v): error %q does not mention %q", tc.args, err, tc.want)
		}
	}
	// Strategy flag accepts its valid values, and none of them may change
	// the scan report.
	a := runScan(t, "-strategy", "fork", "hi")
	b := runScan(t, "-strategy", "rerun", "hi")
	if a != b {
		t.Error("-strategy must not change scan results")
	}
	c := runScan(t, "hi")
	if a != c {
		t.Error("the default strategy must be fork, and must not change scan results")
	}
}

// addrWatcher tees a coordinator's stderr, announcing the "serving
// campaign on <addr>" listen address on a channel as soon as it appears.
// Safe for concurrent writes (exec.Cmd copies pipes from a goroutine).
type addrWatcher struct {
	mu   sync.Mutex
	buf  strings.Builder
	ch   chan string
	sent bool
}

func newAddrWatcher() *addrWatcher { return &addrWatcher{ch: make(chan string, 1)} }

func (w *addrWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		const marker = "serving campaign on "
		s := w.buf.String()
		if i := strings.Index(s, marker); i >= 0 {
			if j := strings.IndexByte(s[i:], '\n'); j >= 0 {
				w.ch <- strings.TrimSpace(s[i+len(marker) : i+j])
				w.sent = true
			}
		}
	}
	return len(p), nil
}

func (w *addrWatcher) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

func (w *addrWatcher) awaitAddr(t *testing.T) string {
	t.Helper()
	select {
	case addr := <-w.ch:
		return addr
	case <-time.After(30 * time.Second):
		t.Fatalf("coordinator never announced its address; stderr:\n%s", w.String())
		return ""
	}
}

// serveWithWorkers runs `favscan -serve` in-process with nWorkers
// in-process `-join` workers over loopback and returns the coordinator's
// stdout report.
func serveWithWorkers(t *testing.T, serveArgs []string, nWorkers int) string {
	t.Helper()
	aw := newAddrWatcher()
	var out strings.Builder
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- run(append([]string{"-serve", "127.0.0.1:0"}, serveArgs...), &out, aw)
	}()
	addr := aw.awaitAddr(t)
	var wg sync.WaitGroup
	for i := 0; i < nWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Mixed strategies across the cluster: outcomes must not
			// depend on which strategy which worker runs.
			args := []string{"-join", addr, "-worker-id", fmt.Sprintf("w%d", i)}
			if i%2 == 1 {
				args = append(args, "-strategy", "rerun")
			}
			if err := run(args, io.Discard, io.Discard); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
	wg.Wait()
	return out.String()
}

// TestClusterServeJoinByteIdentical: a favscan coordinator with two
// favscan workers over loopback must print the exact report of a local
// run — placement equivalence, end to end through the CLI.
func TestClusterServeJoinByteIdentical(t *testing.T) {
	campaignArgs := []string{"-sort-elements", "8", "sort1"}
	reference := runScan(t, campaignArgs...)
	distributed := serveWithWorkers(t, append([]string{"-unit-size", "8"}, campaignArgs...), 2)
	if distributed != reference {
		t.Errorf("distributed report differs from local run:\n--- distributed ---\n%s--- local ---\n%s",
			distributed, reference)
	}
}

// TestClusterKillCoordinatorAndResume is the distributed acceptance test:
// a real favscan coordinator child process is SIGINT-killed mid-campaign
// while an in-process worker executes its units, then a fresh coordinator
// resumes from the checkpoint and the final report must be byte-identical
// to an uninterrupted local run.
func TestClusterKillCoordinatorAndResume(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("relies on SIGINT delivery")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	ck := filepath.Join(t.TempDir(), "cluster.ckpt")
	campaignArgs := []string{"-sort-elements", "48", "sort1"}

	aw := newAddrWatcher()
	child := exec.Command(exe, append([]string{
		"-serve", "127.0.0.1:0", "-checkpoint", ck, "-progress", "-unit-size", "4",
	}, campaignArgs...)...)
	child.Env = append(os.Environ(), "FAVSCAN_CHILD=1")
	child.Stdout = io.Discard
	child.Stderr = aw
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	addr := aw.awaitAddr(t)

	// A deliberately slow worker (single executor, rerun strategy) keeps
	// the campaign running long enough for the SIGINT to land mid-scan. It
	// outlives the coordinator, so any clean shutdown path is acceptable.
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		_ = faultspace.JoinScan(addr, faultspace.JoinOptions{
			WorkerID: "phase1", Workers: 1, Strategy: faultspace.StrategyRerun,
		})
	}()

	deadline := time.Now().Add(30 * time.Second)
	for {
		if fi, err := os.Stat(ck); err == nil && fi.Size() > 200 {
			break
		}
		if time.Now().After(deadline) {
			child.Process.Kill()
			t.Fatalf("checkpoint never grew past its header; child stderr:\n%s", aw.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := child.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := child.Wait(); err == nil {
		t.Fatalf("child completed before the interrupt landed; stderr:\n%s", aw.String())
	}
	select {
	case <-workerDone:
	case <-time.After(60 * time.Second):
		t.Fatal("phase-1 worker never exited after the coordinator died")
	}

	h, prior, err := checkpoint.Load(ck)
	if err != nil {
		t.Fatalf("checkpoint after SIGINT must be valid: %v", err)
	}
	if len(prior) == 0 || uint64(len(prior)) >= h.Classes {
		t.Fatalf("checkpoint holds %d/%d classes, want a proper partial campaign", len(prior), h.Classes)
	}
	t.Logf("coordinator interrupted after %d/%d classes", len(prior), h.Classes)

	resumed := serveWithWorkers(t,
		append([]string{"-checkpoint", ck, "-resume", "-unit-size", "4"}, campaignArgs...), 2)
	reference := runScan(t, campaignArgs...)
	if resumed != reference {
		t.Errorf("resumed distributed report differs from uninterrupted local run:\n--- resumed ---\n%s--- reference ---\n%s",
			resumed, reference)
	}
}

func TestScanErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-sample", "10", "-biased", "-effective", "hi"}, &sb, io.Discard); err == nil {
		t.Error("biased+effective must fail")
	}
	if err := run([]string{"nonsense"}, &sb, io.Discard); err == nil {
		t.Error("unknown benchmark must fail")
	}
	if err := run([]string{}, &sb, io.Discard); err == nil {
		t.Error("missing argument must fail")
	}
	// The service records the golden run of a submission: one that never
	// halts fails the campaign, not the client.
	spin := filepath.Join(t.TempDir(), "spin.s")
	if err := os.WriteFile(spin, []byte("jmp 0\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	intr, listening, served := make(chan struct{}), make(chan string, 1), make(chan error, 1)
	go func() {
		served <- faultspace.ServeCampaigns("127.0.0.1:0", faultspace.CampaignServiceOptions{
			Interrupt: intr, OnListen: func(a string) { listening <- a },
		})
	}()
	err := run([]string{"-submit", <-listening, spin}, &sb, io.Discard)
	if err == nil || !strings.HasPrefix(err.Error(), "campaign failed: ") || !strings.Contains(err.Error(), "did not halt") {
		t.Errorf("-submit of a program that never halts: %v, want campaign failed: … did not halt", err)
	}
	close(intr)
	if err := <-served; err != nil {
		t.Error(err)
	}
}

// TestTelemetryManifestFork is the observability acceptance test: a
// fork scan with -telemetry must emit a valid JSON run manifest
// carrying the campaign identity hash and non-zero strategy counters —
// while leaving the stdout report byte-identical to an uninstrumented
// run (invariant 10 at the CLI level).
func TestTelemetryManifestFork(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	reference := runScan(t, "hi")
	instrumented := runScan(t, "-telemetry", path, "hi")
	if instrumented != reference {
		t.Errorf("-telemetry changed the stdout report:\n--- with ---\n%s--- without ---\n%s",
			instrumented, reference)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("manifest not written: %v", err)
	}
	var m faultspace.RunManifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest is not valid JSON: %v\n%s", err, data)
	}
	if m.Tool != "favscan" || m.Benchmark != "hi/baseline" {
		t.Errorf("manifest identification wrong: tool=%q benchmark=%q", m.Tool, m.Benchmark)
	}
	if m.Strategy != "fork" || m.Space != "memory" {
		t.Errorf("manifest config wrong: strategy=%q space=%q", m.Strategy, m.Space)
	}
	if len(m.Identity) != 64 {
		t.Errorf("identity %q is not a hex SHA-256", m.Identity)
	}
	if _, err := hex.DecodeString(m.Identity); err != nil {
		t.Errorf("identity %q is not hex: %v", m.Identity, err)
	}
	if m.Classes != 16 || m.Workers <= 0 || m.Interrupted {
		t.Errorf("manifest campaign shape wrong: %+v", m)
	}
	if m.WallSeconds <= 0 {
		t.Error("manifest must record wall time")
	}
	if got := m.Telemetry.Counters["scan.experiments"]; got != 16 {
		t.Errorf("scan.experiments = %d, want 16", got)
	}
	if m.Telemetry.Counters["ladder.rung_restores"] == 0 {
		t.Error("ladder.rung_restores must be non-zero on a fork scan")
	}
	if m.Telemetry.Counters["fork.children"] != 16 {
		t.Errorf("fork.children = %d, want 16", m.Telemetry.Counters["fork.children"])
	}
	if m.Telemetry.Gauges["ladder.rungs"] <= 0 {
		t.Error("ladder.rungs gauge must be positive on a fork scan")
	}
	var timed uint64
	for name, h := range m.Telemetry.Histograms {
		if strings.HasPrefix(name, "scan.outcome.") {
			timed += h.Count
		}
	}
	if timed != 16 {
		t.Errorf("outcome histograms hold %d observations, want 16", timed)
	}

	// The identity hash is strategy-invariant: a rerun of the same
	// campaign must record the same identity.
	path2 := filepath.Join(t.TempDir(), "run2.json")
	runScan(t, "-strategy", "rerun", "-telemetry", path2, "hi")
	var m2 faultspace.RunManifest
	data2, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data2, &m2); err != nil {
		t.Fatal(err)
	}
	if m2.Identity != m.Identity {
		t.Errorf("identity differs across strategies: %s vs %s", m.Identity, m2.Identity)
	}
	if m2.Strategy != "rerun" {
		t.Errorf("strategy name = %q, want rerun", m2.Strategy)
	}
	if m2.Telemetry.Counters["ladder.rung_restores"] != 0 || m2.Telemetry.Gauges["ladder.rungs"] != 0 {
		t.Error("rerun manifest must not carry fork counters")
	}
}

// TestTelemetrySummaryTable: -progress must append the human telemetry
// summary to stderr, never stdout.
func TestTelemetrySummaryTable(t *testing.T) {
	var out, prog strings.Builder
	if err := run([]string{"-progress", "hi"}, &out, &prog); err != nil {
		t.Fatal(err)
	}
	p := prog.String()
	if !strings.Contains(p, "Telemetry") || !strings.Contains(p, "scan.experiments") {
		t.Errorf("stderr missing telemetry summary:\n%s", p)
	}
	if !strings.Contains(p, "scan.outcome.sdc") {
		t.Errorf("summary missing outcome histogram row:\n%s", p)
	}
	if strings.Contains(out.String(), "scan.experiments") {
		t.Error("telemetry summary leaked into the stdout report")
	}
}

// TestTelemetryManifestCluster: a coordinator run with -telemetry folds
// the cluster and checkpoint instruments into the same manifest.
func TestTelemetryManifestCluster(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cluster.json")
	ck := filepath.Join(dir, "c.ckpt")
	serveWithWorkers(t, []string{
		"-telemetry", path, "-trace", filepath.Join(dir, "cluster.trace.json"),
		"-checkpoint", ck, "-unit-size", "8", "-sort-elements", "8", "sort1",
	}, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("manifest not written: %v", err)
	}
	var m faultspace.RunManifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if m.Classes == 0 || m.Interrupted {
		t.Errorf("cluster manifest shape wrong: %+v", m)
	}
	if m.Telemetry.Counters["cluster.leases_granted"] == 0 {
		t.Error("cluster.leases_granted must be non-zero")
	}
	if got := int(m.Telemetry.Counters["cluster.submissions"]); got == 0 {
		t.Errorf("cluster.submissions = %d, want non-zero", got)
	}
	if m.Telemetry.Counters["checkpoint.flushes"] == 0 || m.Telemetry.Counters["checkpoint.bytes"] == 0 {
		t.Error("checkpoint writer instruments must be non-zero with -checkpoint")
	}
	// With -trace the manifest carries the campaign timeline, the
	// coordinator's marks included; the separate event stream is gone.
	var joined bool
	for _, sp := range m.Spans {
		if sp.Name == "worker.joined" && sp.Scope == "coordinator" && sp.Dur == 0 {
			joined = true
		}
	}
	if !joined {
		t.Errorf("manifest timeline missing the worker.joined mark: %+v", m.Spans)
	}
	if strings.Contains(string(data), `"events`) {
		t.Error("manifest still has an events key")
	}
}
