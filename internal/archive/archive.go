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
	"strconv"

	"faultspace/internal/campaign"
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

// Encode writes a completed scan as a JSON archive; a partial result
// (Pending > 0) is refused with campaign.ErrPartialResult. The header
// fields go through encoding/json; the class list — all but a few hundred
// of an archive's bytes — is appended by hand to the bytes the reflective
// encoder would produce for []classArchive, which it spent a tenth of a
// small campaign on.
func Encode(w io.Writer, r *campaign.Result) error {
	if r.Pending > 0 {
		return fmt.Errorf("archive: %w (%d classes pending)", campaign.ErrPartialResult, r.Pending)
	}
	if len(r.Outcomes) != len(r.Space.Classes) {
		return fmt.Errorf("archive: scan result has %d outcomes for %d classes",
			len(r.Outcomes), len(r.Space.Classes))
	}
	head, err := json.Marshal(&scanArchive{
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
		Classes:       []classArchive{},
	})
	if err != nil {
		return err
	}
	// head ends in the empty class list, `[]}`: the classes go between
	// its brackets.
	const perClass = 48 // `{"b":…,"d":…,"u":…,"o":…},` of a 64 KiB RAM, million-cycle campaign
	buf := make([]byte, 0, len(head)+len(r.Space.Classes)*perClass+1)
	buf = append(buf, head[:len(head)-2]...)
	for i, c := range r.Space.Classes {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendUint(append(buf, `{"b":`...), c.Bit, 10)
		buf = strconv.AppendUint(append(buf, `,"d":`...), c.DefCycle, 10)
		buf = strconv.AppendUint(append(buf, `,"u":`...), c.UseCycle, 10)
		buf = strconv.AppendUint(append(buf, `,"o":`...), uint64(r.Outcomes[i]), 10)
		buf = append(buf, '}')
	}
	buf = append(buf, "]}\n"...)
	_, err = w.Write(buf)
	return err
}
