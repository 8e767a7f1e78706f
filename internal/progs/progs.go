// Package progs contains the fav32 benchmark programs of this
// reproduction:
//
//   - hi: the paper's §IV "Hi" Gedankenexperiment program (Figure 3),
//   - bin_sem2: a port of the eCos binary-semaphore kernel test,
//   - sync2: a port of the eCos mutex/condition-variable kernel test,
//
// plus the cooperative threading kernel (two threads, binary semaphores,
// mutex) the kernel tests run on. Kernel state and thread contexts are
// accessed through the pld/pst protected-access pseudo instructions, so a
// single source yields both the baseline variant (plain loads/stores) and
// the SUM+DMR-hardened variant.
package progs

import (
	"fmt"
	"strconv"
	"strings"

	"faultspace/internal/asm"
	"faultspace/internal/harden"
)

// Spec describes one benchmark with its baseline and hardened forms.
type Spec struct {
	// Name identifies the benchmark.
	Name string
	// BaselineSrc is the assembly source of the baseline variant (RAM
	// sized without replica space).
	BaselineSrc string
	// HardenedSrc is the assembly source for the hardened variant: same
	// program, RAM extended by the replica and checksum regions (the
	// checksum region pre-initialized to ~0 for SUM+DMR).
	HardenedSrc string
	// HardenedTMRSrc is the source for the TMR variant: same extended
	// layout, but with the third region zero-initialized (a plain copy,
	// not a checksum). Empty when the benchmark has no protected data.
	HardenedTMRSrc string
	// DMR is the SUM+DMR configuration matching the source's data layout.
	DMR harden.SumDMR
	// DataAddrs lists RAM addresses holding live data, usable as dummy-load
	// targets for the DFT' dilution cheat.
	DataAddrs []int64
}

// Variant assembles the benchmark in the named variant. It is the one
// table of variant names: favscan's and favsim's -variant, progs.Load and
// every experiment build their programs through it.
//
//	baseline                   protected accesses as plain loads/stores
//	sum+dmr, sumdmr, hardened  SUM+DMR: duplication + complement checksum
//	tmr                        TMR: bitwise-majority triplication
//	dft:N                      the baseline behind N prepended NOPs (§IV, DFT)
//	dft2:N                     the baseline behind N dummy loads (§IV, DFT′)
func (s Spec) Variant(name string) (*asm.Program, error) {
	switch {
	case name == "baseline":
		return s.Baseline()
	case name == "sum+dmr" || name == "sumdmr" || name == "hardened":
		return s.Hardened()
	case name == "tmr":
		return s.hardenedTMR()
	case strings.HasPrefix(name, "dft:"):
		n, err := strconv.Atoi(strings.TrimPrefix(name, "dft:"))
		if err != nil {
			return nil, fmt.Errorf("bad dft count: %w", err)
		}
		return s.withVariant(harden.Dilution{NOPs: n})
	case strings.HasPrefix(name, "dft2:"):
		n, err := strconv.Atoi(strings.TrimPrefix(name, "dft2:"))
		if err != nil {
			return nil, fmt.Errorf("bad dft2 count: %w", err)
		}
		return s.withVariant(harden.DilutionLoads{Loads: n, Addrs: s.DataAddrs})
	default:
		return nil, fmt.Errorf("unknown variant %q (baseline, sum+dmr, tmr, dft:N, dft2:N)", name)
	}
}

// Baseline assembles the baseline variant: the baseline source with
// protected accesses expanded into plain loads/stores.
func (s Spec) Baseline() (*asm.Program, error) {
	stmts, err := s.variantStmts(s.BaselineSrc, harden.Baseline{})
	if err != nil {
		return nil, err
	}
	return asm.AssembleStmts(s.Name+"/baseline", stmts)
}

// Hardened assembles the SUM+DMR variant: the hardened source with
// SUM+DMR applied. Specs without protected data (zero DMR configuration)
// fall back to the baseline expansion: there is nothing to harden.
func (s Spec) Hardened() (*asm.Program, error) {
	var v harden.Variant = s.DMR
	if s.DMR == (harden.SumDMR{}) {
		v = harden.Baseline{}
	}
	stmts, err := s.variantStmts(s.HardenedSrc, v)
	if err != nil {
		return nil, err
	}
	return asm.AssembleStmts(s.Name+"/sum+dmr", stmts)
}

// hardenedTMR assembles the TMR variant. Triple modular redundancy
// shares the SUM+DMR layout: the second copy lives where SUM+DMR keeps
// its replica, the third where SUM+DMR keeps its checksums.
func (s Spec) hardenedTMR() (*asm.Program, error) {
	if s.HardenedTMRSrc == "" {
		return nil, fmt.Errorf("progs: %s has no TMR variant", s.Name)
	}
	if s.DMR == (harden.SumDMR{}) {
		return nil, fmt.Errorf("progs: %s has no protected data to triplicate", s.Name)
	}
	stmts, err := s.variantStmts(s.HardenedTMRSrc, harden.TMR{
		Copy2Offset: s.DMR.ReplicaOffset,
		Copy3Offset: s.DMR.CheckOffset,
		RegionBase:  s.DMR.RegionBase,
		RegionWords: s.DMR.RegionWords,
	})
	if err != nil {
		return nil, err
	}
	return asm.AssembleStmts(s.Name+"/tmr", stmts)
}

// withVariant assembles the baseline program transformed by an additional
// variant (the DFT dilution cheats applied on top of the baseline).
func (s Spec) withVariant(v harden.Variant) (*asm.Program, error) {
	stmts, err := s.variantStmts(s.BaselineSrc, harden.Chain(harden.Baseline{}, v))
	if err != nil {
		return nil, err
	}
	return asm.AssembleStmts(s.Name+"/"+v.Name(), stmts)
}

func (s Spec) variantStmts(src string, v harden.Variant) ([]asm.Stmt, error) {
	stmts, err := asm.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("progs: parse %s: %w", s.Name, err)
	}
	out, err := v.Apply(stmts)
	if err != nil {
		return nil, fmt.Errorf("progs: %s: %w", s.Name, err)
	}
	return out, nil
}
