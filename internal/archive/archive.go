// Package archive encodes completed campaigns as self-contained JSON
// scan archives so that expensive scans can be stored, shared and
// re-analyzed without re-running the experiments — the role the FAIL*
// result database plays for the paper's campaigns. An archive keeps the
// fault-space geometry, every equivalence class with its outcome, and
// the golden run's reference output.
//
// The encoding is deterministic: a campaign result maps to exactly one
// byte sequence. Together with the strategy/placement/accelerator
// equivalence invariants (DESIGN.md invariants 8–11) this is what makes
// archived reports content-addressable by the campaign identity hash —
// the service's result archive (internal/service) stores these bytes
// verbatim and serves them for duplicate submissions (invariant 12).
package archive

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"faultspace/internal/campaign"
	"faultspace/internal/pruning"
	"faultspace/internal/trace"
)

// Version is bumped on incompatible schema changes.
const Version = 1

// identityHex renders a campaign identity hash for the archive; the zero
// hash (identity unknown) maps to the empty string.
func identityHex(id [32]byte) string {
	if id == ([32]byte{}) {
		return ""
	}
	return hex.EncodeToString(id[:])
}

type scanArchive struct {
	Version int    `json:"version"`
	Name    string `json:"name"`
	// Identity is the hex campaign identity hash (see CampaignIdentity),
	// correlating the archive with the campaign (and any checkpoint file)
	// that produced it. Empty in archives from older builds or results
	// reconstructed without a program.
	Identity      string         `json:"identity,omitempty"`
	Space         string         `json:"space"`
	Cycles        uint64         `json:"cycles"`
	Bits          uint64         `json:"bits"`
	RAMBits       uint64         `json:"ramBits"`
	KnownNoEffect uint64         `json:"knownNoEffect"`
	Serial        []byte         `json:"serial"`
	Detects       uint64         `json:"detects"`
	Corrects      uint64         `json:"corrects"`
	Classes       []classArchive `json:"classes"`
}

type classArchive struct {
	Bit     uint64 `json:"b"`
	Def     uint64 `json:"d"`
	Use     uint64 `json:"u"`
	Outcome uint8  `json:"o"`
}

// Encode writes a completed scan as a JSON archive.
func Encode(w io.Writer, r *campaign.Result) error {
	if len(r.Outcomes) != len(r.Space.Classes) {
		return fmt.Errorf("archive: scan result has %d outcomes for %d classes",
			len(r.Outcomes), len(r.Space.Classes))
	}
	a := scanArchive{
		Version:       Version,
		Name:          r.Target.Name,
		Identity:      identityHex(r.Identity),
		Space:         r.Space.Kind.String(),
		Cycles:        r.Space.Cycles,
		Bits:          r.Space.Bits,
		RAMBits:       r.Golden.RAMBits,
		KnownNoEffect: r.Space.KnownNoEffect,
		Serial:        r.Golden.Serial,
		Detects:       r.Golden.Detects,
		Corrects:      r.Golden.Corrects,
		Classes:       make([]classArchive, len(r.Space.Classes)),
	}
	for i, c := range r.Space.Classes {
		a.Classes[i] = classArchive{
			Bit:     c.Bit,
			Def:     c.DefCycle,
			Use:     c.UseCycle,
			Outcome: uint8(r.Outcomes[i]),
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&a)
}

// Decode reads a scan archive and reconstructs a campaign result
// sufficient for analysis and reporting (Analyze, Compare, outcome
// dumps). The reconstructed result has no program attached and cannot be
// re-executed. The fault-space partition invariant is re-verified, so
// inconsistent or tampered archives are rejected.
func Decode(r io.Reader) (*campaign.Result, error) {
	var a scanArchive
	dec := json.NewDecoder(r)
	if err := dec.Decode(&a); err != nil {
		return nil, fmt.Errorf("archive: decode scan archive: %w", err)
	}
	if a.Version != Version {
		return nil, fmt.Errorf("archive: scan archive version %d, want %d", a.Version, Version)
	}
	kind, err := pruning.ParseKind(a.Space)
	if err != nil {
		return nil, fmt.Errorf("archive: %w in archive", err)
	}

	classes := make([]pruning.Class, len(a.Classes))
	outcomes := make([]campaign.Outcome, len(a.Classes))
	for i, c := range a.Classes {
		classes[i] = pruning.Class{Bit: c.Bit, DefCycle: c.Def, UseCycle: c.Use}
		if !campaign.Outcome(c.Outcome).Known() {
			return nil, fmt.Errorf("archive: archive class %d has unknown outcome %d", i, c.Outcome)
		}
		outcomes[i] = campaign.Outcome(c.Outcome)
	}
	fs, err := pruning.FromClasses(kind, a.Cycles, a.Bits, classes, a.KnownNoEffect)
	if err != nil {
		return nil, fmt.Errorf("archive: scan archive inconsistent: %w", err)
	}
	var id [32]byte
	if a.Identity != "" {
		raw, err := hex.DecodeString(a.Identity)
		if err != nil || len(raw) != len(id) {
			return nil, fmt.Errorf("archive: scan archive has malformed identity %q", a.Identity)
		}
		copy(id[:], raw)
	}
	return &campaign.Result{
		Identity: id,
		Target:   campaign.Target{Name: a.Name},
		Golden: &trace.Golden{
			Name:     a.Name,
			Cycles:   a.Cycles,
			RAMBits:  a.RAMBits,
			Serial:   a.Serial,
			Detects:  a.Detects,
			Corrects: a.Corrects,
		},
		Space:    fs,
		Outcomes: outcomes,
	}, nil
}
