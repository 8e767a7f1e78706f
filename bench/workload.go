package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"faultspace"
	"faultspace/internal/progs"
)

// spec is one generated campaign: a bundled program at one size, in its
// baseline or SUM+DMR-hardened form, scanned over one fault space.
type spec struct {
	Prog     string
	Size     int // the program's size parameter (0: the program has none)
	Hardened bool
	Space    faultspace.SpaceKind
	// Baseline is the index in the list of the baseline campaign this
	// hardened one is compared against, -1 for none.
	Baseline int
}

func (s spec) label() string {
	variant := "baseline"
	if s.Hardened {
		variant = "sum+dmr"
	}
	return fmt.Sprintf("%s(%d)/%s/%s", s.Prog, s.Size, variant, s.Space)
}

// assemble builds the program of a spec from its bundled source.
func (s spec) assemble() (*faultspace.Program, error) {
	var sz progs.Sizes
	switch s.Prog {
	case "bin_sem2":
		sz.BinSemRounds = s.Size
	case "sync2":
		sz.SyncRounds, sz.SyncBufBytes = s.Size, 64
	case "clock1":
		sz.ClockTicks = s.Size
	case "mbox1":
		sz.MboxMessages = s.Size
	case "preempt1":
		sz.PreemptWork = s.Size
	case "sort1":
		sz.SortElements = s.Size
	}
	ps, err := progs.Resolve(s.Prog, sz)
	if err != nil {
		return nil, err
	}
	if s.Hardened {
		return ps.Hardened()
	}
	return ps.Baseline()
}

// kind says how a workload's campaigns reach the program.
type kind int

const (
	kindLocal kind = iota // faultspace.Scan in this process, as favscan does
	kindFleet             // submitted to a campaign service with a loopback fleet
	kindHot               // submitted to a worker-less service whose archive holds every report
)

// workload is one set of inputs the benchmark runs. A run repeats the
// workload's seed-generated campaign list in rounds, one client, each
// campaign waiting for its verified report before the next is issued.
//
// Every seed's list holds the same campaigns, or for scan_fig2 the same
// amount of work: the seed draws the order (and for scan_fig2 which sizes
// are paired up) from a fixed pool. A draw of sizes would make the spread
// between seeds the spread of the inputs, not of the program: lists that
// assigned six sizes to the six fault spaces at random differed by 30% in
// work.
type workload struct {
	name string
	why  string // one line, copied into BENCHMARK.json
	kind kind
	// scan is how experiments execute: the local scan's options, or the
	// loopback fleet workers'.
	scan faultspace.ScanOptions
	gen  func(r *rand.Rand, tiny bool) []spec
}

var (
	forkScan  = faultspace.ScanOptions{Strategy: faultspace.StrategyFork, Predecode: true}
	rerunScan = faultspace.ScanOptions{Strategy: faultspace.StrategyRerun}
)

var allSpaces = []faultspace.SpaceKind{
	faultspace.SpaceMemory, faultspace.SpaceRegisters, faultspace.SpaceSkip,
	faultspace.SpacePC, faultspace.SpaceBurst2, faultspace.SpaceBurst4,
}

// sizePool is the fixed set of programs and sizes a workload's campaigns
// are taken from.
type sizePool []struct {
	prog  string
	sizes []int
}

// mixPool is the pool of scan_mix and scan_rerun: six sizes per bundled
// program, chosen so that a baseline campaign takes about 2-40 ms.
// scan_rerun scans all of them, scan_mix every other one over all six
// fault spaces.
var mixPool = sizePool{
	{"bin_sem2", []int{1, 2, 3, 4, 5, 6}},
	{"sync2", []int{1, 2, 3, 4, 5, 6}},
	{"clock1", []int{3, 4, 5, 6, 7, 8}},
	{"mbox1", []int{2, 3, 4, 5, 6, 8}},
	{"preempt1", []int{10, 15, 20, 25, 30, 40}},
	{"sort1", []int{6, 8, 10, 12, 14, 16}},
	{"hi", []int{0}},
}

// tinyPool is the pool of the tests' smoke run.
var tinyPool = sizePool{
	{"bin_sem2", []int{1}},
	{"sort1", []int{6}},
	{"hi", []int{0}},
}

// list returns the campaigns of a pool over the given spaces, taking
// every step-th size, in the order the seed draws.
func (pool sizePool) list(r *rand.Rand, step int, spaces []faultspace.SpaceKind) []spec {
	var list []spec
	for _, p := range pool {
		for i := 0; i < len(p.sizes); i += step {
			for _, space := range spaces {
				list = append(list, spec{Prog: p.prog, Size: p.sizes[i], Space: space, Baseline: -1})
			}
		}
	}
	r.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
	return list
}

func genFig2(r *rand.Rand, tiny bool) []spec {
	// Two sets of the paper's Figure 2 quadruple. The round counts of the
	// two sets add up to 5 per program, so every seed scans bin_sem2 and
	// sync2 at 2 and at 3 rounds once; the seed pairs them up.
	a, b := 2+r.Intn(2), 2+r.Intn(2)
	sets := [][2]int{{a, b}, {5 - a, 5 - b}}
	if tiny {
		sets = [][2]int{{1, 1}}
	}
	var list []spec
	for _, set := range sets {
		for i, prog := range []string{"bin_sem2", "sync2"} {
			list = append(list,
				spec{Prog: prog, Size: set[i], Space: faultspace.SpaceMemory, Baseline: -1},
				spec{Prog: prog, Size: set[i], Space: faultspace.SpaceMemory, Hardened: true, Baseline: len(list)})
		}
	}
	return list
}

func genMix(r *rand.Rand, tiny bool) []spec {
	if tiny {
		return tinyPool.list(r, 1, allSpaces)
	}
	return mixPool.list(r, 2, allSpaces)
}

func genRerun(r *rand.Rand, tiny bool) []spec {
	memory := []faultspace.SpaceKind{faultspace.SpaceMemory}
	if tiny {
		return tinyPool.list(r, 1, memory)
	}
	return mixPool.list(r, 1, memory)
}

// fleetPool is the pool of the two service workloads: eight distinct
// campaigns that take the fleet 50-300 ms each.
var fleetPool = sizePool{
	{"sort1", []int{6, 10, 14, 18}},
	{"mbox1", []int{4, 8, 12, 16}},
}

func genFleet(r *rand.Rand, tiny bool) []spec {
	memory := []faultspace.SpaceKind{faultspace.SpaceMemory}
	if tiny {
		return fleetPool.list(r, 4, memory)
	}
	return fleetPool.list(r, 1, memory)
}

// workloads lists the benchmark's workloads. The names are permanent:
// issues and BENCHMARK.json refer to them.
var workloads = []workload{
	{
		name: "scan_fig2", kind: kindLocal, scan: forkScan, gen: genFig2,
		why: "8 local campaigns a round: the paper's Figure 2 quadruple (bin_sem2, sync2 x baseline, SUM+DMR) at 2 and 3 rounds; the hardened scans (39k-68k classes) make the faulty suffix do nearly all the work",
	},
	{
		name: "scan_mix", kind: kindLocal, scan: forkScan, gen: genMix,
		why: "114 small local campaigns a round: the 7 bundled programs at 3 sizes x all 6 fault spaces, 2-40 ms each, so per-campaign fixed costs (golden run, pruning, ladder, checkpoint fsync, archive) dominate",
	},
	{
		name: "scan_rerun", kind: kindLocal, scan: rerunScan, gen: genRerun,
		why: "37 local baseline campaigns a round under the oracle configuration (rerun from reset, no predecode, memory space): a fork or predecode gain must leave it flat",
	},
	{
		name: "fleet_cold", kind: kindFleet, scan: forkScan, gen: genFleet,
		why: "8 distinct sort1/mbox1 campaigns a round through a campaign service with an empty archive and a loopback fleet: wire codec, lease round trips, merge, idle poll and archive writes block the client",
	},
	{
		name: "service_hot", kind: kindHot, scan: forkScan, gen: genFleet,
		why: "the fleet_cold list against a worker-less service whose archive already holds every report: store open, archive read, report serve and decode; no experiment may run",
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// generate returns the campaign list of a workload for a seed.
func (w *workload) generate(seed int64, tiny bool) []spec {
	return w.gen(rand.New(rand.NewSource(seed)), tiny)
}

// fleetWorkers is the size of the loopback fleet: single-threaded workers,
// two where that leaves a core to the service and the client, one on a
// machine of two cores. Two workers on two cores had the client, the
// service and the fleet take turns on them, and which worker's idle poll
// picked a campaign up -- worth 200 ms -- was the scheduler's choice: ten
// runs of one commit spread by 30%.
func fleetWorkers() int { return max(1, min(2, runtime.NumCPU()-1)) }
