package progs

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"faultspace/internal/asm"
	"faultspace/internal/harden"
)

// VariantUsage is the help text of a tool's -variant flag.
const VariantUsage = "baseline, sum+dmr, tmr, dft:N or dft2:N"

// RegisterFlags declares the benchmark size flags on fs, bound to s —
// all of them, or only the named ones — defaulting to the registry's
// sizes. Every tool that builds a bundled benchmark sizes it through
// here, so a flag means the same in each.
func (s *Sizes) RegisterFlags(fs *flag.FlagSet, only ...string) {
	*s = s.withDefaults()
	for _, f := range []struct {
		name  string
		count *int
		usage string
	}{
		{"binsem-rounds", &s.BinSemRounds, "bin_sem2 ping-pong rounds"},
		{"sync-rounds", &s.SyncRounds, "sync2 handshake rounds"},
		{"sync-buf", &s.SyncBufBytes, "sync2 message-buffer bytes"},
		{"clock-ticks", &s.ClockTicks, "clock1 timer ticks"},
		{"mbox-messages", &s.MboxMessages, "mbox1 messages"},
		{"preempt-work", &s.PreemptWork, "preempt1 work units per thread"},
		{"sort-elements", &s.SortElements, "sort1 array elements"},
	} {
		if wanted(f.name, only) {
			fs.IntVar(f.count, f.name, *f.count, f.usage)
		}
	}
	for _, f := range []struct {
		name   string
		cycles *uint64
		usage  string
	}{
		{"clock-period", &s.ClockPeriod, "clock1 timer period (cycles)"},
		{"preempt-period", &s.PreemptPeriod, "preempt1 timer period (cycles)"},
	} {
		if wanted(f.name, only) {
			fs.Uint64Var(f.cycles, f.name, *f.cycles, f.usage)
		}
	}
}

func wanted(name string, only []string) bool {
	for _, o := range only {
		if o == name {
			return true
		}
	}
	return len(only) == 0
}

// Load builds the program a tool was pointed at: an assembly file
// (.s/.asm, run as-is) or a bundled benchmark in the named variant.
func Load(arg, variant string, sizes Sizes) (*asm.Program, error) {
	if strings.HasSuffix(arg, ".s") || strings.HasSuffix(arg, ".asm") {
		src, err := os.ReadFile(arg)
		if err != nil {
			return nil, err
		}
		return asm.Assemble(arg, string(src))
	}
	spec, err := Resolve(arg, sizes)
	if err != nil {
		return nil, err
	}
	switch {
	case variant == "baseline":
		return spec.Baseline()
	case variant == "sum+dmr" || variant == "sumdmr" || variant == "hardened":
		return spec.Hardened()
	case variant == "tmr":
		return spec.HardenedTMR()
	case strings.HasPrefix(variant, "dft:"):
		n, err := strconv.Atoi(strings.TrimPrefix(variant, "dft:"))
		if err != nil {
			return nil, fmt.Errorf("bad dft count: %w", err)
		}
		return spec.WithVariant(harden.Dilution{NOPs: n})
	case strings.HasPrefix(variant, "dft2:"):
		n, err := strconv.Atoi(strings.TrimPrefix(variant, "dft2:"))
		if err != nil {
			return nil, fmt.Errorf("bad dft2 count: %w", err)
		}
		return spec.WithVariant(harden.DilutionLoads{Loads: n, Addrs: spec.DataAddrs})
	default:
		return nil, fmt.Errorf("unknown variant %q (baseline, sum+dmr, tmr, dft:N, dft2:N)", variant)
	}
}
