package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"faultspace"
	"faultspace/internal/archive"
	"faultspace/internal/campaign"
	"faultspace/internal/checkpoint"
	"faultspace/internal/cluster"
	"faultspace/internal/machine"
	"faultspace/internal/pruning"
	"faultspace/internal/service"
	"faultspace/internal/trace"
)

// This file fills the per-layer metrics of a traced run. Every layer is
// measured from outside, by timing calls into its public functions on the
// workload's own inputs; nothing inside the program is instrumented.

// maxBody bounds what the benchmark reads from one HTTP response.
const maxBody = 32 << 20

func httpDo(method, url string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	return data, resp.StatusCode, err
}

// httpGet fetches a path of a campaign service and wants a 200.
func httpGet(addr, path string) ([]byte, error) {
	data, code, err := httpDo(http.MethodGet, "http://"+addr+path, nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET %s: HTTP %d: %s", path, code, bytes.TrimSpace(data))
	}
	return data, err
}

// collect reads what the service itself recorded about a finished
// campaign: the campaign's telemetry counters, and the fleet timeline of
// /v1/campaigns/{id}/trace (lease and submit round trips, unit scans,
// worker waits).
func (r *round) collect(addr, id string) error {
	data, err := httpGet(addr, "/v1/campaigns/"+id)
	if err != nil {
		return err
	}
	var st service.CampaignStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("campaign status: %w", err)
	}
	if st.Telemetry != nil {
		for name, v := range st.Telemetry.Counters {
			r.counters[name] += v
		}
	}
	data, err = httpGet(addr, "/v1/campaigns/"+id+"/trace?format=jsonl")
	if err != nil {
		return err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, maxBody)
	for sc.Scan() {
		var sp faultspace.Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			return fmt.Errorf("campaign trace: %w", err)
		}
		r.fleetSpans[sp.Name] = append(r.fleetSpans[sp.Name], sp.Dur)
	}
	return sc.Err()
}

// maxProbes bounds the campaigns the layer replays run on: the first few
// of the seed's list, which the seed has already shuffled.
const maxProbes = 6

// layers accumulates per-layer metrics by name.
type layers map[string]value

// timing records the median (and extremes) of durations in the unit conv
// yields.
func (l layers) timing(name string, ds []time.Duration, conv func(time.Duration) float64) {
	l[name] = summarize(durations(ds, conv))
}

// timeIt runs f and returns how long it took.
func timeIt(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// replay measures each layer in isolation on the probe campaigns.
func (e *env) replay(l layers) error {
	probes := e.camps
	if len(probes) > maxProbes {
		probes = probes[:maxProbes]
	}
	dir := filepath.Join(e.dir, "replay")
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var assemble []time.Duration
	for _, c := range probes {
		var err error
		assemble = append(assemble, timeIt(func() { _, err = c.spec.assemble() }))
		if err != nil {
			return err
		}
	}
	l.timing("asm.assemble_ms_p50", assemble, ms)

	if err := replayMachine(l, probes); err != nil {
		return err
	}
	if err := replayPrepare(l, probes); err != nil {
		return err
	}
	if e.w.kind != kindLocal {
		// The service workloads scan inside the fleet or not at all; a local
		// scan of the probes stands in for the campaign layer's own cost.
		var scans []time.Duration
		var experiments uint64
		for _, c := range probes {
			opts := c.opts
			opts.Workers = 1
			var err error
			scans = append(scans, timeIt(func() { c.result, err = faultspace.Scan(c.prog, opts) }))
			if err != nil {
				return err
			}
			experiments += uint64(len(c.result.Outcomes))
		}
		l.timing("campaign.scan_ms_p50", scans, ms)
		l["campaign.us_per_experiment"] = single(ratio(us(sum(scans)), float64(experiments)))
	}
	if err := replayCheckpoint(l, probes, dir); err != nil {
		return err
	}
	reports, err := replayArchive(l, probes)
	if err != nil {
		return err
	}
	specs, err := replayCluster(l, probes)
	if err != nil {
		return err
	}
	return replayService(l, probes, reports, specs, dir)
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// simBudget is the simulated work each machine probe repeats a program
// up to, so that short programs are timed over more than a few
// microseconds.
const simBudget = 400_000 // cycles

func replayMachine(l layers, probes []*camp) error {
	var plainT, preT time.Duration
	var plainC, preC uint64
	var capture, restore, fork, probe []time.Duration
	pages := 0
	for _, c := range probes {
		cfg := faultspace.MachineConfig(c.prog)
		fresh := func(pre bool) (*machine.Machine, error) {
			m, err := machine.New(cfg, c.prog.Code, c.prog.Image)
			if err == nil {
				m.SetPredecode(pre)
			}
			return m, err
		}
		// Simulator speed, plain decoder and pre-decoded stream: Run of the
		// fault-free program from reset.
		var cycles uint64
		for _, pre := range []bool{false, true} {
			var spent time.Duration
			var done uint64
			for done < simBudget {
				m, err := fresh(pre)
				if err != nil {
					return err
				}
				spent += timeIt(func() { m.Run(faultspace.DefaultMaxGoldenCycles) })
				if m.Status() != machine.StatusHalted || m.Cycles() == 0 {
					return fmt.Errorf("%s: fault-free run ended %v after %d cycles", c.label, m.Status(), m.Cycles())
				}
				cycles = m.Cycles()
				done += cycles
			}
			if pre {
				preT, preC = preT+spent, preC+done
			} else {
				plainT, plainC = plainT+spent, plainC+done
			}
		}

		// Ladder capture at the ladder strategy's rung spacing, then rung
		// restores in a scattered order, as experiments ask for them.
		pioneer, err := fresh(true)
		if err != nil {
			return err
		}
		interval := max(cycles/campaign.DefaultLadderRungs, campaign.MinLadderInterval)
		ladder := machine.NewLadder(pioneer)
		for next := interval; next < cycles; next += interval {
			if pioneer.Run(next) != machine.StatusRunning {
				break
			}
			capture = append(capture, timeIt(func() { ladder.Capture(pioneer) }))
		}
		pages += ladder.PagesStored()
		worker, err := fresh(true)
		if err != nil {
			return err
		}
		cur := ladder.NewCursor(worker)
		for i, r := 0, 0; i < 2*ladder.Rungs(); i++ {
			r = (r + 7) % ladder.Rungs()
			restore = append(restore, timeIt(func() { cur.Restore(r) }))
			worker.Run(worker.Cycles() + 8)
		}

		// Fork: the parent advances through the golden run, the child is
		// re-forked at every stop and runs a few cycles of its own.
		parent, err := fresh(true)
		if err != nil {
			return err
		}
		child, err := fresh(true)
		if err != nil {
			return err
		}
		forker := machine.NewForker(parent, child)
		det := machine.NewLoopDetector(0)
		for next := uint64(16); next < cycles; next += 16 {
			if parent.Run(next) != machine.StatusRunning {
				break
			}
			fork = append(fork, timeIt(forker.Fork))
			if child.Run(child.Cycles()+8) == machine.StatusRunning {
				probe = append(probe, timeIt(func() { det.Probe(child) }))
			}
		}
	}
	l["machine.plain_minstr_per_s"] = single(ratio(float64(plainC)/1e6, plainT.Seconds()))
	l["machine.predecode_minstr_per_s"] = single(ratio(float64(preC)/1e6, preT.Seconds()))
	l.timing("machine.ladder_capture_us", capture, us)
	l.timing("machine.rung_restore_us", restore, us)
	l.timing("machine.fork_us", fork, us)
	l["machine.ladder_pages_stored"] = single(float64(pages))
	l.timing("machine.loop_probe_ns", probe, func(d time.Duration) float64 { return float64(d) })
	return nil
}

// replayPrepare times the golden run and the six fault-space builders on
// each probe's program, and the campaign layer's PrepareSpace on top.
func replayPrepare(l layers, probes []*camp) error {
	var record, prepare []time.Duration
	var cycles, classes uint64
	var buildAll time.Duration
	build := make(map[faultspace.SpaceKind][]time.Duration)
	for _, c := range probes {
		t := faultspace.Target(c.prog)
		var g *faultspace.Golden
		var err error
		record = append(record, timeIt(func() {
			g, err = trace.Record(t.Name, t.Mach, t.Code, t.Image, faultspace.DefaultMaxGoldenCycles)
		}))
		if err != nil {
			return err
		}
		cycles += g.Cycles
		for _, kind := range allSpaces {
			var fs *faultspace.FaultSpace
			d := timeIt(func() {
				switch kind {
				case faultspace.SpaceMemory:
					fs, err = pruning.Build(g)
				case faultspace.SpaceRegisters:
					fs, err = pruning.BuildRegisters(g)
				case faultspace.SpaceSkip:
					fs, err = pruning.BuildSkip(g, t.Code)
				case faultspace.SpacePC:
					fs, err = pruning.BuildPC(g, uint32(len(t.Code)))
				default:
					fs, err = pruning.BuildBurst(g, kind.BurstWidth())
				}
			})
			if err != nil {
				return err
			}
			build[kind] = append(build[kind], d)
			buildAll += d
			classes += uint64(len(fs.Classes))
		}
		prepare = append(prepare, timeIt(func() {
			_, _, err = t.PrepareSpace(c.Space, faultspace.DefaultMaxGoldenCycles)
		}))
		if err != nil {
			return err
		}
	}
	l.timing("trace.record_ms_p50", record, ms)
	l["trace.record_mcycles_per_s"] = single(ratio(float64(cycles)/1e6, sum(record).Seconds()))
	for _, kind := range allSpaces {
		l.timing("pruning.build_ms."+kind.String(), build[kind], ms)
	}
	l["pruning.build_mclasses_per_s"] = single(ratio(float64(classes)/1e6, buildAll.Seconds()))
	l.timing("campaign.prepare_ms_p50", prepare, ms)
	return nil
}

// replayCheckpoint streams each probe's own outcomes through a checkpoint
// file: buffered appends, a sync every DefaultFlushEvery records as the
// writer itself does, the final close, and a load.
func replayCheckpoint(l layers, probes []*camp, dir string) error {
	var appendT time.Duration
	var syncs, closes, loads []time.Duration
	var records, size int64
	for i, c := range probes {
		path := filepath.Join(dir, fmt.Sprintf("p%d.ckpt", i))
		out := c.result.Outcomes
		w, err := checkpoint.Create(path, checkpoint.Header{
			Version: checkpoint.Version, Identity: c.id, Classes: uint64(len(out)),
		})
		if err != nil {
			return err
		}
		w.FlushEvery = len(out) + 1 // the replay syncs by hand, to time it
		for lo := 0; lo < len(out); lo += checkpoint.DefaultFlushEvery {
			hi := min(lo+checkpoint.DefaultFlushEvery, len(out))
			appendT += timeIt(func() {
				for ci := lo; ci < hi; ci++ {
					w.Append(ci, uint8(out[ci]))
				}
			})
			if hi < len(out) {
				syncs = append(syncs, timeIt(func() { err = w.Sync() }))
			}
		}
		closes = append(closes, timeIt(func() {
			if cerr := w.Close(); err == nil {
				err = cerr
			}
		}))
		if err != nil {
			return err
		}
		loads = append(loads, timeIt(func() { _, _, err = checkpoint.Load(path) }))
		if err != nil {
			return err
		}
		info, err := os.Stat(path)
		if err != nil {
			return err
		}
		records += int64(len(out))
		size += info.Size()
	}
	l["checkpoint.append_ns"] = single(ratio(float64(appendT), float64(records)))
	l.timing("checkpoint.sync_ms_p50", syncs, ms)
	l.timing("checkpoint.close_ms_p50", closes, ms)
	l.timing("checkpoint.load_ms_p50", loads, ms)
	l["checkpoint.bytes_per_class"] = single(ratio(float64(size), float64(records)))
	return nil
}

// replayArchive encodes and decodes each probe's report, and returns the
// encoded reports.
func replayArchive(l layers, probes []*camp) ([][]byte, error) {
	var enc, dec, ana []time.Duration
	var reports [][]byte
	var size, classes int64
	for _, c := range probes {
		var report bytes.Buffer
		var err error
		enc = append(enc, timeIt(func() { err = archive.Encode(&report, c.result) }))
		if err != nil {
			return nil, err
		}
		dec = append(dec, timeIt(func() { _, err = archive.Decode(bytes.NewReader(report.Bytes())) }))
		if err != nil {
			return nil, err
		}
		ana = append(ana, timeIt(func() { _, err = faultspace.Analyze(c.result) }))
		if err != nil {
			return nil, err
		}
		reports = append(reports, report.Bytes())
		size += int64(report.Len())
		classes += int64(len(c.result.Outcomes))
	}
	mb := float64(size) / 1e6
	l.timing("archive.encode_ms_p50", enc, ms)
	l["archive.encode_mb_per_s"] = single(ratio(mb, sum(enc).Seconds()))
	l.timing("archive.decode_ms_p50", dec, ms)
	l["archive.decode_mb_per_s"] = single(ratio(mb, sum(dec).Seconds()))
	l["archive.bytes_per_class"] = single(ratio(float64(size), float64(classes)))
	l.timing("analysis.analyze_us_p50", ana, us)
	return reports, nil
}

// unitClasses is the work-unit size the codec probe encodes: the
// cluster's default.
const unitClasses = cluster.DefaultUnitSize

// replayCluster times the wire codec and the campaign rebuild, and returns
// the probes' encoded specs.
func replayCluster(l layers, probes []*camp) ([][]byte, error) {
	var enc, dec, unit, rebuild []time.Duration
	var frames [][]byte
	for _, c := range probes {
		t := faultspace.Target(c.prog)
		classes := uint64(len(c.result.Outcomes))
		var frame []byte
		var err error
		enc = append(enc, timeIt(func() {
			var spec cluster.Spec
			spec, err = cluster.NewSpec(t, c.Space, campaign.Config{}, faultspace.DefaultMaxGoldenCycles, classes)
			frame = cluster.EncodeSpec(spec)
		}))
		if err != nil {
			return nil, err
		}
		frames = append(frames, frame)
		var spec cluster.Spec
		dec = append(dec, timeIt(func() { spec, err = cluster.DecodeSpec(frame) }))
		if err != nil {
			return nil, err
		}
		rebuild = append(rebuild, timeIt(func() { _, _, _, _, err = cluster.BuildCampaign(spec) }))
		if err != nil {
			return nil, err
		}
		// One work unit out and its submission back, encoded and decoded.
		n := min(unitClasses, len(c.result.Outcomes))
		wu := cluster.WorkUnit{Status: cluster.UnitGranted, ID: 1, Token: 1, Classes: make([]int, n)}
		sub := cluster.Submission{Identity: c.id, WorkerID: "probe", UnitID: 1, Token: 1, Entries: make([]checkpoint.Entry, n)}
		for i := 0; i < n; i++ {
			wu.Classes[i] = i
			sub.Entries[i] = checkpoint.Entry{Class: i, Outcome: uint8(c.result.Outcomes[i])}
		}
		unit = append(unit, timeIt(func() {
			if _, err = cluster.DecodeWorkUnit(cluster.EncodeWorkUnit(wu)); err == nil {
				_, err = cluster.DecodeSubmission(cluster.EncodeSubmission(sub))
			}
		}))
		if err != nil {
			return nil, err
		}
	}
	l.timing("cluster.spec_encode_us", enc, us)
	l.timing("cluster.spec_decode_us", dec, us)
	l.timing("cluster.unit_codec_us", unit, us)
	l.timing("cluster.rebuild_ms_p50", rebuild, ms)
	return frames, nil
}

// replayService archives the probes' reports in a fresh store, reopens it
// and reads them back, then serves them from a worker-less service and
// times each lifecycle request alone, without the client's own work.
func replayService(l layers, probes []*camp, reports, specs [][]byte, dir string) error {
	archiveDir := filepath.Join(dir, "archive")
	store, err := service.OpenStore(archiveDir, 0)
	if err != nil {
		return err
	}
	var put, get []time.Duration
	for i, c := range probes {
		put = append(put, timeIt(func() { err = store.Put(c.id, reports[i]) }))
		if err != nil {
			return err
		}
	}
	open := timeIt(func() { store, err = service.OpenStore(archiveDir, 0) })
	if err != nil {
		return err
	}
	for _, c := range probes {
		hit := false
		get = append(get, timeIt(func() { _, hit = store.Get(c.id) }))
		if !hit {
			return fmt.Errorf("store lost %s", c.label)
		}
	}
	l.timing("service.store_put_ms_p50", put, ms)
	l.timing("service.store_get_us_p50", get, us)
	l["service.store_open_ms"] = single(ms(open))

	s, err := startService(archiveDir, 0, faultspace.ScanOptions{})
	if err != nil {
		return err
	}
	var post, poll, fetch []time.Duration
	for i, c := range probes {
		var code int
		post = append(post, timeIt(func() { _, code, err = httpDo(http.MethodPost, "http://"+s.addr+"/v1/campaigns", specs[i]) }))
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("POST /v1/campaigns: HTTP %d", code)
		}
		if err == nil {
			poll = append(poll, timeIt(func() { _, err = httpGet(s.addr, "/v1/campaigns/"+c.idHex()) }))
		}
		if err == nil {
			fetch = append(fetch, timeIt(func() { _, err = httpGet(s.addr, "/v1/campaigns/"+c.idHex()+"/report") }))
		}
		if err != nil {
			s.stop()
			return err
		}
	}
	l.timing("service.submit_ms_p50", post, ms)
	l.timing("service.status_poll_us_p50", poll, us)
	l.timing("service.report_fetch_ms_p50", fetch, ms)
	return s.stop()
}

// counterNames maps the program's telemetry counters to the per-layer
// metrics that report them.
var counterNames = map[string]string{
	"campaign.experiments":         "scan.experiments",
	"campaign.fork_children":       "fork.children",
	"campaign.prefix_cycles_saved": "fork.prefix_cycles_saved",
	"campaign.rung_restores":       "ladder.rung_restores",
	"campaign.reconverged":         "ladder.reconverged",
	"campaign.loop_proofs":         "ladder.loop_proofs",
}

// hostUsage is the process's memory and collector state at one moment.
type hostUsage struct {
	alloc   uint64
	gcPause time.Duration
}

func readHost() hostUsage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return hostUsage{alloc: m.TotalAlloc, gcPause: time.Duration(m.PauseTotalNs)}
}

// fromRounds fills the per-layer metrics the rounds themselves yield: the
// span timings of the traced rounds, the program's exact counters, what
// the service recorded, and the cost of tracing.
func (e *env) fromRounds(l layers, rounds []round, tr *tracer, before hostUsage) {
	var plainWall, plainCPU, tracedWall, cpu, wall []float64
	var latencies []float64
	var last *round
	var queue, lease, submitRTT, unitScan, workerWait []time.Duration
	rejected, campaigns := 0, 0
	for i := range rounds {
		r := &rounds[i]
		cpu = append(cpu, r.cpu.Seconds())
		wall = append(wall, r.wall.Seconds())
		if !r.traced() {
			plainWall = append(plainWall, r.wall.Seconds())
			plainCPU = append(plainCPU, r.cpu.Seconds())
			for _, s := range r.samples {
				if s.err == nil {
					latencies = append(latencies, ms(s.latency))
				}
			}
			continue
		}
		tracedWall = append(tracedWall, r.wall.Seconds())
		last = r
		queue = append(queue, r.queue...)
		lease = append(lease, r.fleetSpans["worker.lease"]...)
		submitRTT = append(submitRTT, r.fleetSpans["worker.submit"]...)
		unitScan = append(unitScan, r.fleetSpans["unit.scan"]...)
		workerWait = append(workerWait, r.fleetSpans["worker.wait"]...)
		rejected += r.rejected
		campaigns += len(r.samples)
	}

	// Exact counts of one round: every traced round runs the same list, so
	// the last one stands for all of them.
	for metric, counter := range counterNames {
		l[metric] = single(float64(last.counters[counter]))
	}
	experiments := float64(last.counters["scan.experiments"])
	shortcuts := float64(last.counters["ladder.reconverged"] + last.counters["ladder.loop_proofs"])
	l["campaign.shortcut_share"] = single(ratio(shortcuts, experiments))

	workers := runtime.NumCPU() // kindHot has no workers: the whole machine serves
	switch e.w.kind {
	case kindLocal:
		scans := tr.named("scan")
		l.timing("campaign.scan_ms_p50", scans, ms)
		l["campaign.us_per_experiment"] = single(ratio(us(sum(scans)), experiments*float64(len(tracedWall))))
	case kindFleet:
		workers = fleetWorkers()
	}
	l["campaign.parallel_efficiency"] = single(ratio(median(cpu), median(wall)*float64(workers)))

	l.timing("cluster.lease_rtt_ms_p50", lease, ms)
	p99, _ := tailPercentile(durations(lease, ms), 0.99)
	l["cluster.lease_rtt_ms_p99"] = value{Value: p99, Samples: len(lease)}
	l.timing("cluster.submit_rtt_ms_p50", submitRTT, ms)
	l.timing("cluster.unit_scan_ms_p50", unitScan, ms)
	l.timing("cluster.worker_wait_ms_p50", workerWait, ms)
	l["cluster.units_per_campaign"] = single(ratio(float64(len(unitScan)), float64(campaigns)))
	l.timing("service.queue_ms_p50", queue, ms)
	l["service.rejected"] = single(float64(rejected))

	// Like the end-to-end metrics, the two kinds of round are compared by
	// their better quartile, which a disturbed round does not move.
	quiet := quantile(plainWall, 0.25)
	overhead := 100 * ratio(quantile(tracedWall, 0.25)-quiet, quiet)
	l["telemetry.trace_overhead_pct"] = value{Value: overhead, Samples: len(tracedWall)}

	p90, _ := tailPercentile(latencies, 0.90)
	_, hi := minMax(latencies)
	l["client.campaign_ms_p90"] = value{Value: p90, Samples: len(latencies)}
	l["client.campaign_ms_max"] = value{Value: hi, Samples: len(latencies)}

	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // on failure the peak reads 0
	after := readHost()
	l["host.cpu_s"] = better(plainCPU, 0.25)
	l["host.peak_rss_mb"] = single(float64(ru.Maxrss) / 1024)
	l["host.alloc_mb"] = single(float64(after.alloc-before.alloc) / 1e6)
	l["host.gc_pause_ms"] = single(ms(after.gcPause - before.gcPause))
	l["host.cpu_utilisation"] = single(ratio(median(cpu), median(wall)*float64(runtime.NumCPU())))
}
