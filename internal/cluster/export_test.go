package cluster

import (
	"testing"

	"faultspace/internal/campaign"
	"faultspace/internal/machine"
	"faultspace/internal/progs"
	"faultspace/internal/pruning"
	"faultspace/internal/telemetry"
	"faultspace/internal/trace"
)

// The tests that host a campaign on the campaign service are in package
// cluster_test — internal/service imports this package — and share these
// fixtures with the tests in package cluster.

// MaxGolden is the golden-run bound of the test campaigns.
const MaxGolden = 1 << 22

// TimelineCapacity is the capacity of the recorder a campaign's host
// makes when its registry brings none.
const TimelineCapacity = 4 * telemetry.DefaultSpanCapacity

// SmallCampaign prepares a small benchmark campaign.
func SmallCampaign(t testing.TB, name string) (campaign.Target, *trace.Golden, *pruning.FaultSpace) {
	t.Helper()
	spec, err := progs.Resolve(name, progs.Sizes{
		BinSemRounds: 1, SyncRounds: 1, SyncBufBytes: 16,
		ClockTicks: 2, ClockPeriod: 32, MboxMessages: 2,
		PreemptWork: 8, PreemptPeriod: 24, SortElements: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := spec.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	tgt := campaign.Target{
		Name:  prog.Name,
		Code:  prog.Code,
		Image: prog.Image,
		Mach: machine.Config{
			RAMSize:     prog.RAMSize,
			TimerPeriod: prog.TimerPeriod,
			TimerVector: prog.TimerVector,
		},
	}
	golden, fs, err := tgt.PrepareSpace(pruning.SpaceMemory, MaxGolden)
	if err != nil {
		t.Fatal(err)
	}
	return tgt, golden, fs
}
