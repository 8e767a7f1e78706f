package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"faultspace"
	"faultspace/internal/campaign"
	"faultspace/internal/checkpoint"
	"faultspace/internal/service"
)

// camp is a spec made ready to run: assembled, identified, and with the
// digest its report must have once that is known.
type camp struct {
	spec
	label string
	prog  *faultspace.Program
	opts  faultspace.ScanOptions
	id    [32]byte
	// want is the SHA-256 the report bytes must have and wantFrom where it
	// comes from ("golden", "oracle", "first run"); "" means not known yet:
	// the first report then sets it and every later one must repeat it.
	want     [32]byte
	wantFrom string
	// bad, once set, fails every run of the campaign: its expected digests
	// contradict each other, so no report can be called verified.
	bad error
	// result is the campaign's latest scan result, kept by traced rounds
	// for the layer replays.
	result *faultspace.ScanResult
}

func (c *camp) idHex() string { return hex.EncodeToString(c.id[:]) }

// verify hashes a report and holds the digest against the expected one.
// A mismatch names the campaign, its identity hash and both digests.
func (c *camp) verify(report []byte) ([32]byte, error) {
	digest := sha256.Sum256(report)
	switch {
	case c.bad != nil:
		return digest, c.bad
	case c.wantFrom == "":
		c.want, c.wantFrom = digest, "first run"
	case digest != c.want:
		return digest, fmt.Errorf("campaign %s (identity %s): report digest %x, want %x (%s)",
			c.label, c.idHex(), digest, c.want, c.wantFrom)
	}
	return digest, nil
}

// simStats are the simulated statistics of a campaign list. They depend
// on the programs and the simulator only, so they repeat exactly between
// runs and between commits that do not change what is simulated.
type simStats struct {
	Campaigns    int    `json:"campaigns"`
	Classes      uint64 `json:"classes"`
	GoldenCycles uint64 `json:"golden_cycles"`
	// SpaceSize is the sum of cycles x bits; Analyze's weighted outcome
	// counts (class weights plus known-no-effect) must add up to it.
	SpaceSize  uint64 `json:"space_size"`
	FailWeight uint64 `json:"fail_weight"`
}

func (s *simStats) add(o simStats) {
	s.Campaigns += o.Campaigns
	s.Classes += o.Classes
	s.GoldenCycles += o.GoldenCycles
	s.SpaceSize += o.SpaceSize
	s.FailWeight += o.FailWeight
}

// analyze runs the public analysis on a report and checks that the fault
// space is accounted for exactly.
func analyze(res *faultspace.ScanResult) (simStats, faultspace.Analysis, error) {
	a, err := faultspace.Analyze(res)
	if err != nil {
		return simStats{}, a, err
	}
	var weight uint64
	for _, w := range a.WeightedCounts {
		weight += w
	}
	if weight != a.SpaceSize {
		return simStats{}, a, fmt.Errorf("weighted outcomes add up to %d, fault space is %d", weight, a.SpaceSize)
	}
	return simStats{
		Campaigns: 1, Classes: a.Classes, GoldenCycles: a.RuntimeCycles,
		SpaceSize: a.SpaceSize, FailWeight: a.FailWeight,
	}, a, nil
}

// sample is one campaign execution of a round.
type sample struct {
	camp    *camp
	latency time.Duration // call or submit to verified report bytes in hand
	digest  [32]byte
	stats   simStats
	err     error // nil: the report arrived and passed verification
}

// round is one pass over the campaign list.
type round struct {
	n       int
	tr      *tracer // nil: the untraced round the end-to-end metrics are made of
	dir     string  // scratch directory of the round: checkpoints, the fleet's archive
	start   time.Time
	wall    time.Duration
	cpu     time.Duration // user+sys CPU of the process over the round
	samples []sample

	// Collected by traced rounds only.
	reg        *faultspace.Telemetry      // the local scans' registry
	counters   map[string]uint64          // the program's telemetry counters
	fleetSpans map[string][]time.Duration // the service's own per-campaign timeline
	queue      []time.Duration            // accepted to first seen running
	rejected   int                        // submissions answered 429 or 503
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (r *round) traced() bool { return r.tr != nil }

// span opens a span of this round under parent (nil: top level).
func (r *round) span(campaign, name string, parent *spanRef) *spanRef {
	return r.tr.begin(r.n, campaign, name, parent)
}

func (r *round) begin() {
	r.start = time.Now()
	r.cpu = cpuTime()
}

func (r *round) finish() {
	r.wall = time.Since(r.start)
	r.cpu = cpuTime() - r.cpu
}

func (r *round) classes() uint64 {
	var n uint64
	for _, s := range r.samples {
		if s.err == nil {
			n += s.stats.Classes
		}
	}
	return n
}

// env is what set-up produces: the campaign list ready to run.
type env struct {
	w     *workload
	dir   string // scratch directory, inside the checkout
	camps []*camp
	hot   string // kindHot: the archive directory set-up populated
}

// prepare assembles one spec and computes its campaign identity.
func (w *workload) prepare(s spec) (*camp, error) {
	prog, err := s.assemble()
	if err != nil {
		return nil, fmt.Errorf("assemble %s: %w", s.label(), err)
	}
	opts := w.scan
	opts.Space = s.Space
	if w.kind == kindLocal {
		opts.Workers = runtime.NumCPU()
	}
	id, err := faultspace.CampaignIdentity(prog, opts)
	if err != nil {
		return nil, fmt.Errorf("identity %s: %w", s.label(), err)
	}
	return &camp{spec: s, label: s.label(), prog: prog, opts: opts, id: id}, nil
}

// setup does everything a run needs before its timed section: it
// generates the campaign list from the seed, assembles the programs, for
// fleet_cold starts and drains a service with its fleet and, for
// service_hot, populates the archive with a local scan of each.
func setup(w *workload, seed int64, tiny bool, dir string) (*env, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	e := &env{w: w, dir: dir}
	for _, s := range w.generate(seed, tiny) {
		c, err := w.prepare(s)
		if err != nil {
			return nil, err
		}
		e.camps = append(e.camps, c)
	}
	switch w.kind {
	case kindLocal:
		return e, nil
	case kindFleet:
		// Every round starts a service and its fleet before its clock
		// does: that is set-up, so it is done, and undone, here as well.
		s, err := startService(filepath.Join(dir, "archive"), fleetWorkers(), w.scan)
		if err != nil {
			return nil, err
		}
		return e, s.stop()
	}
	e.hot = filepath.Join(dir, "archive")
	store, err := service.OpenStore(e.hot, 0)
	if err != nil {
		return nil, err
	}
	for _, c := range e.camps {
		opts := c.opts
		opts.Workers = runtime.NumCPU()
		res, err := faultspace.Scan(c.prog, opts)
		if err != nil {
			return nil, fmt.Errorf("populate %s: %w", c.label, err)
		}
		var report bytes.Buffer
		if err := faultspace.SaveScan(&report, res); err != nil {
			return nil, fmt.Errorf("populate %s: %w", c.label, err)
		}
		if err := store.Put(c.id, report.Bytes()); err != nil {
			return nil, fmt.Errorf("populate %s: %w", c.label, err)
		}
	}
	store.Sync()
	return e, nil
}

// oracleShare is the seeded share of a list the oracle recomputes: one
// campaign in eight.
const oracleShare = 8

// expect fills in the digests the reports must have, before anything is
// timed: from the tracked golden file where the seed has one, and from
// the oracle configuration (rerun from reset, no predecode, no memo) for
// a seeded one-in-eight subset, whatever the seed.
func (e *env) expect(seed int64, golden *goldenFile) error {
	if golden != nil {
		golden.apply(e.camps)
	}
	n := (len(e.camps) + oracleShare - 1) / oracleShare
	for _, i := range rand.New(rand.NewSource(seed ^ 0x0c1e)).Perm(len(e.camps))[:n] {
		c := e.camps[i]
		res, err := faultspace.Scan(c.prog, faultspace.ScanOptions{
			Strategy: faultspace.StrategyRerun, Space: c.Space, Workers: runtime.NumCPU(),
		})
		if err != nil {
			return fmt.Errorf("oracle %s: %w", c.label, err)
		}
		var report bytes.Buffer
		if err := faultspace.SaveScan(&report, res); err != nil {
			return fmt.Errorf("oracle %s: %w", c.label, err)
		}
		digest := sha256.Sum256(report.Bytes())
		if c.wantFrom != "" && c.want != digest && c.bad == nil {
			c.bad = fmt.Errorf("campaign %s (identity %s): oracle digest %x contradicts %x (%s)",
				c.label, c.idHex(), digest, c.want, c.wantFrom)
		}
		c.want, c.wantFrom = digest, "oracle"
	}
	return nil
}

// svc is an in-process campaign service on a loopback port.
type svc struct {
	addr string
	intr chan struct{}
	done chan error
}

// startService serves campaigns from archive with a loopback fleet of the
// given size; workers execute as scan says, one thread each.
func startService(archive string, workers int, scan faultspace.ScanOptions) (*svc, error) {
	s := &svc{intr: make(chan struct{}), done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		s.done <- faultspace.ServeCampaigns("127.0.0.1:0", faultspace.CampaignServiceOptions{
			ArchiveDir:   archive,
			LocalWorkers: workers,
			WorkerOptions: faultspace.JoinOptions{
				Workers: 1, Strategy: scan.Strategy, Predecode: scan.Predecode,
			},
			Interrupt: s.intr,
			OnListen:  func(a string) { addr <- a },
		})
	}()
	select {
	case s.addr = <-addr:
		return s, nil
	case err := <-s.done:
		if err == nil {
			err = errors.New("service stopped before listening")
		}
		return nil, err
	}
}

// stop drains the service and waits until it and its fleet have ended.
func (s *svc) stop() error {
	close(s.intr)
	return <-s.done
}

// runRound runs one pass over camps. A nil tracer is the untraced round
// whose timings the end-to-end metrics are made of.
func (e *env) runRound(n int, camps []*camp, tr *tracer) (round, error) {
	r := round{n: n, tr: tr, dir: filepath.Join(e.dir, fmt.Sprintf("round%d", n))}
	if err := os.MkdirAll(r.dir, 0o777); err != nil {
		return r, err
	}
	defer os.RemoveAll(r.dir)

	switch e.w.kind {
	case kindLocal:
		if r.traced() {
			r.reg = faultspace.NewTelemetry()
		}
		analyses := make([]faultspace.Analysis, len(camps))
		r.begin()
		for i, c := range camps {
			r.samples = append(r.samples, r.local(i, c, analyses))
		}
		r.finish()
		if r.traced() {
			r.counters = r.reg.Snapshot().Counters
		}
		return r, nil

	case kindFleet:
		// A fresh service, fleet and empty archive per round: every
		// campaign of every round is a miss. Starting and draining them is
		// outside the timed section, which runs from the first submission
		// to the last verified report.
		s, err := startService(filepath.Join(r.dir, "archive"), fleetWorkers(), e.w.scan)
		if err != nil {
			return r, err
		}
		r.begin()
		r.submitAll(camps, s.addr, false, fleetThink)
		r.finish()
		return r, s.stop()

	default: // kindHot
		// The round includes starting the service on the populated archive
		// (the store rebuilds its index) and draining it. With no workers a
		// miss would hang, so a campaign not answered from the archive
		// fails at once.
		r.begin()
		sp := r.span("", "start", nil)
		s, err := startService(e.hot, 0, e.w.scan)
		sp.end()
		if err != nil {
			return r, err
		}
		r.submitAll(camps, s.addr, true, 0)
		sp = r.span("", "drain", nil)
		err = s.stop()
		sp.end()
		r.finish()
		return r, err
	}
}

// submitAll submits camps one after the other, the client pausing for
// think before each.
func (r *round) submitAll(camps []*camp, addr string, wantCached bool, think time.Duration) {
	if r.traced() {
		r.counters = make(map[string]uint64)
		r.fleetSpans = make(map[string][]time.Duration)
	}
	for _, c := range camps {
		if think > 0 {
			sp := r.span("", "think", nil)
			time.Sleep(think)
			sp.end()
		}
		r.samples = append(r.samples, r.submit(c, addr, wantCached))
	}
}

// local runs campaign i of a list the way favscan does: scan with a
// checkpoint, save the report, analyse it, and for a hardened variant
// compare it with its baseline, whose analysis is in analyses.
func (r *round) local(i int, c *camp, analyses []faultspace.Analysis) sample {
	t0 := time.Now()
	root := r.span(c.label, "campaign", nil)
	child := func(name string) *spanRef { return r.span(c.label, name, root) }
	s := sample{camp: c}

	opts := c.opts
	opts.Checkpoint = filepath.Join(r.dir, fmt.Sprintf("c%d.ckpt", i))
	var res *faultspace.ScanResult
	if r.traced() {
		opts.Telemetry = r.reg
		res, s.err = tracedScan(c, opts, child)
		c.result = res
	} else {
		res, s.err = faultspace.Scan(c.prog, opts)
	}
	var report bytes.Buffer
	if s.err == nil {
		sp := child("save")
		s.err = faultspace.SaveScan(&report, res)
		sp.end()
	}
	if s.err == nil {
		sp := child("analyze")
		s.stats, analyses[i], s.err = analyze(res)
		if s.err == nil && c.Baseline >= 0 {
			_, s.err = faultspace.Compare(analyses[c.Baseline], analyses[i])
		}
		sp.end()
	}
	if s.err == nil {
		sp := child("verify")
		s.digest, s.err = c.verify(report.Bytes())
		sp.end()
	}
	root.end()
	s.latency = time.Since(t0)
	return s
}

// tracedScan is faultspace.Scan with a checkpoint, taken apart into the
// calls Scan itself makes, so that each gets its own span.
func tracedScan(c *camp, opts faultspace.ScanOptions, child func(string) *spanRef) (*faultspace.ScanResult, error) {
	t := faultspace.Target(c.prog)
	sp := child("prepare")
	golden, fs, err := t.PrepareSpace(c.Space, faultspace.DefaultMaxGoldenCycles)
	sp.end()
	if err != nil {
		return nil, err
	}
	cfg := campaign.Config{
		Workers: opts.Workers, Strategy: opts.Strategy, Predecode: opts.Predecode,
		Telemetry: opts.Telemetry,
	}
	sp = child("checkpoint")
	w, err := checkpoint.Create(opts.Checkpoint, checkpoint.Header{
		Version: checkpoint.Version, Identity: c.id, Classes: uint64(len(fs.Classes)),
	})
	sp.end()
	if err != nil {
		return nil, err
	}
	w.Instrument(cfg.Telemetry)
	cfg.OnResult = func(ci int, o campaign.Outcome) { w.Append(ci, uint8(o)) }
	sp = child("scan")
	res, err := campaign.ResumeScan(t, golden, fs, cfg, nil)
	sp.end()
	sp = child("checkpoint")
	cerr := w.Close()
	sp.end()
	if err == nil {
		err = cerr
	}
	return res, err
}

// A fleet campaign of these sizes takes well under a second, so one
// still unfinished after fleetTimeout is lost.
const (
	waitPoll     = 2 * time.Millisecond
	fleetTimeout = 20 * time.Second
	// fleetThink is the pause of fleet_cold's client before a submission.
	// A worker that finds no campaign sleeps through a 200 ms idle poll,
	// and it asks within a millisecond of its last one ending, or of
	// joining. A client that submits at once races that: after a report
	// that decodes in 10 ms it lost nineteen times in twenty, after a
	// short one or at the start of a round about every other time, and a
	// campaign took 20 ms or 220 ms as the race went. With the pause the
	// fleet is always idle, as it is for a user who reads a report first.
	fleetThink = 20 * time.Millisecond
)

// submit runs one campaign through a campaign service the way favscan
// -submit does: submit, wait, fetch the report and decode it.
func (r *round) submit(c *camp, addr string, wantCached bool) sample {
	t0 := time.Now()
	root := r.span(c.label, "campaign", nil)
	child := func(name string) *spanRef { return r.span(c.label, name, root) }

	sp := child("submit")
	info, err := faultspace.SubmitCampaign(addr, c.prog, c.opts, "")
	sp.end()
	accepted := time.Now()
	switch {
	case err != nil:
		if strings.Contains(err.Error(), "HTTP 429") || strings.Contains(err.Error(), "HTTP 503") {
			r.rejected++
		}
	case wantCached && !info.Cached:
		err = fmt.Errorf("campaign %s (identity %s): not answered from the archive (state %s)", c.label, c.idHex(), info.State)
	case !info.Terminal():
		sp = child("wait")
		info, err = r.wait(addr, info.ID, accepted)
		sp.end()
	}
	if err == nil && info.State != service.StateDone {
		err = fmt.Errorf("campaign %s (identity %s): ended %s: %s", c.label, c.idHex(), info.State, info.Error)
	}

	// Fetch and decode are the two halves of the public CampaignReport,
	// made apart because verification hashes the bytes as served.
	var res *faultspace.ScanResult
	var report []byte
	if err == nil {
		sp = child("fetch")
		report, err = httpGet(addr, "/v1/campaigns/"+info.ID+"/report")
		sp.end()
	}
	if err == nil {
		sp = child("decode")
		res, err = faultspace.LoadScan(bytes.NewReader(report))
		sp.end()
		if r.traced() {
			c.result = res
		}
	}
	s := sample{camp: c}
	if err == nil {
		sp = child("analyze")
		s.stats, _, err = analyze(res)
		sp.end()
	}
	if err == nil {
		sp = child("verify")
		s.digest, err = c.verify(report)
		sp.end()
	}
	if err == nil && r.traced() && !info.Cached {
		sp = child("collect")
		err = r.collect(addr, info.ID)
		sp.end()
	}
	root.end()
	s.err = err
	s.latency = time.Since(t0)
	return s
}

// wait polls a campaign until it ends. The untraced round uses the
// public WaitCampaign; the traced one polls by hand so that it can note
// when the campaign was first seen running.
func (r *round) wait(addr, id string, accepted time.Time) (faultspace.CampaignInfo, error) {
	if !r.traced() {
		intr := make(chan struct{})
		t := time.AfterFunc(fleetTimeout, func() { close(intr) })
		defer t.Stop()
		return faultspace.WaitCampaign(addr, id, waitPoll, intr)
	}
	seenRunning := false
	for {
		info, err := faultspace.CampaignState(addr, id)
		if err != nil || info.Terminal() {
			return info, err
		}
		if !seenRunning && info.State == service.StateRunning {
			seenRunning = true
			r.queue = append(r.queue, time.Since(accepted))
		}
		if time.Since(accepted) > fleetTimeout {
			return info, fmt.Errorf("campaign %s: still %s after %v", id, info.State, fleetTimeout)
		}
		time.Sleep(waitPoll)
	}
}

// timedRounds repeats the campaign list until the budget is used: a new
// round starts only while half of it is expected to fit. With trace set,
// untraced and traced rounds alternate, so that the two are measured
// under the same conditions. There is always at least one round of each
// kind asked for.
func (e *env) timedRounds(budget time.Duration, tr *tracer) ([]round, error) {
	var rounds []round
	var took []float64 // per round, with its untimed start and drain
	start := time.Now()
	for {
		var rt *tracer
		if len(rounds)%2 == 1 {
			rt = tr
		}
		t0 := time.Now()
		r, err := e.runRound(len(rounds)+1, e.camps, rt)
		if err != nil {
			return rounds, err
		}
		rounds = append(rounds, r)
		took = append(took, float64(time.Since(t0)))
		enough := tr == nil || len(rounds)%2 == 0
		if enough && time.Since(start)+time.Duration(median(took)/2) >= budget {
			return rounds, nil
		}
	}
}
