package experiments

import (
	"fmt"

	"faultspace"
	"faultspace/internal/asm"
	"faultspace/internal/campaign"
	"faultspace/internal/harden"
)

// MultiFaultResult quantifies what §III-A's single-fault approximation
// protects: the SUM+DMR mechanism guarantees correction of any SINGLE
// bit flip in a protected word's primary/replica/checksum triple, but the
// guarantee collapses for fault PAIRS. The experiment enumerates, on a
// minimal protected store→load program, every single flip and every
// unordered pair of flips across the triple at a fixed injection slot.
type MultiFaultResult struct {
	// Single-fault results: must be all-benign.
	SingleTotal    int
	SingleFailures int

	// Double-fault results over all unordered bit pairs of the triple.
	PairTotal    int
	PairFailures int

	// Breakdown of pair failures by which words the two flips hit:
	// "P+R", "P+C", "R+C", "P+P", "R+R", "C+C".
	PairFailuresByWords map[string]int
	PairTotalByWords    map[string]int
}

// FailureFraction returns the fraction of fault pairs that defeat the
// mechanism.
func (r *MultiFaultResult) FailureFraction() float64 {
	if r.PairTotal == 0 {
		return 0
	}
	return float64(r.PairFailures) / float64(r.PairTotal)
}

// multiFaultProgram is the minimal protected store→load vehicle: store a
// constant through pst, idle, load it back through pld and print all four
// bytes.
const multiFaultProgram = `
        .ram    48
        .equ    SERIAL, 0x10000
        li      r1, 0x5AC3_0F66
        pst     r1, 0(r0)
        nop
        nop
        pld     r2, 0(r0)
        sb      r2, SERIAL(r0)
        shri    r3, r2, 8
        sb      r3, SERIAL(r0)
        shri    r3, r2, 16
        sb      r3, SERIAL(r0)
        shri    r3, r2, 24
        sb      r3, SERIAL(r0)
        halt
`

const (
	mfReplicaOffset = 16
	mfCheckOffset   = 32
	// mfSlot injects after the 4-instruction pst expansion retired
	// (li + sw + sw + xori + sw = 5 cycles) and before the pld begins.
	mfSlot = 6
)

// MultiFault runs the single- and double-fault enumeration for SUM+DMR.
func MultiFault(opts faultspace.ScanOptions) (*MultiFaultResult, error) {
	return multiFaultWith(harden.SumDMR{
		ReplicaOffset: mfReplicaOffset,
		CheckOffset:   mfCheckOffset,
	}, opts)
}

// MultiFaultTMR runs the enumeration for the TMR mechanism on the same
// layout, making the two mechanisms' double-fault behavior directly
// comparable: TMR's bitwise majority survives every pair except same-bit
// flips in two copies.
func MultiFaultTMR(opts faultspace.ScanOptions) (*MultiFaultResult, error) {
	return multiFaultWith(harden.TMR{
		Copy2Offset: mfReplicaOffset,
		Copy3Offset: mfCheckOffset,
	}, opts)
}

// multiFaultWith runs the enumeration under an arbitrary hardening
// variant that uses the shared three-region layout.
func multiFaultWith(v harden.Variant, opts faultspace.ScanOptions) (*MultiFaultResult, error) {
	stmts, err := asm.Parse(multiFaultProgram)
	if err != nil {
		return nil, err
	}
	expanded, err := v.Apply(stmts)
	if err != nil {
		return nil, err
	}
	prog, err := asm.AssembleStmts("multifault", expanded)
	if err != nil {
		return nil, err
	}
	target := faultspace.Target(prog)
	golden, _, err := target.PrepareSpace(faultspace.SpaceMemory, 1<<16)
	if err != nil {
		return nil, err
	}
	cfg := campaign.Config{
		TimeoutFactor: opts.TimeoutFactor,
		Workers:       1,
	}

	// The 96 bits of the protected triple: primary word at byte 0,
	// replica at 16, checksum at 32.
	var bits []uint64
	for _, base := range []uint64{0, mfReplicaOffset, mfCheckOffset} {
		for b := uint64(0); b < 32; b++ {
			bits = append(bits, base*8+b)
		}
	}
	word := func(bit uint64) string {
		switch bit / (8 * mfReplicaOffset) {
		case 0:
			return "P"
		case 1:
			return "R"
		default:
			return "C"
		}
	}

	res := &MultiFaultResult{
		PairFailuresByWords: make(map[string]int),
		PairTotalByWords:    make(map[string]int),
	}

	for _, b := range bits {
		o, err := campaign.RunMulti(target, golden, cfg, faultspace.SpaceMemory, []campaign.Coord{{Slot: mfSlot, Bit: b}})
		if err != nil {
			return nil, err
		}
		res.SingleTotal++
		if !o.Benign() {
			res.SingleFailures++
		}
	}

	for i := 0; i < len(bits); i++ {
		for j := i + 1; j < len(bits); j++ {
			o, err := campaign.RunMulti(target, golden, cfg, faultspace.SpaceMemory,
				[]campaign.Coord{{Slot: mfSlot, Bit: bits[i]}, {Slot: mfSlot, Bit: bits[j]}})
			if err != nil {
				return nil, err
			}
			key := pairKey(word(bits[i]), word(bits[j]))
			res.PairTotal++
			res.PairTotalByWords[key]++
			if !o.Benign() {
				res.PairFailures++
				res.PairFailuresByWords[key]++
			}
		}
	}
	return res, nil
}

func pairKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return fmt.Sprintf("%s+%s", a, b)
}
