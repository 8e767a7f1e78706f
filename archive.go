package faultspace

import (
	"io"

	"faultspace/internal/archive"
)

// Scan archives persist completed campaigns as JSON so that expensive
// scans can be stored, shared and re-analyzed without re-running the
// experiments — the role the FAIL* result database plays for the paper's
// campaigns. An archive is self-contained for analysis purposes: it keeps
// the fault-space geometry, every equivalence class with its outcome, and
// the golden run's reference output.
//
// The codec lives in internal/archive; the campaign service's
// content-addressed result store (internal/service) persists exactly
// these bytes, keyed by the campaign identity hash, which is what makes
// an archived report byte-identical to a live scan's (invariant 12).

// SaveScan writes a completed scan as a JSON archive; the partial result
// of an interrupted scan is refused with ErrPartialResult.
func SaveScan(w io.Writer, r *ScanResult) error {
	return archive.Encode(w, r)
}

// LoadScan reads a scan archive and reconstructs a ScanResult sufficient
// for analysis and reporting (Analyze, Compare, outcome dumps). The
// reconstructed result has no program attached and cannot be re-executed.
// The fault-space partition invariant is re-verified, so inconsistent or
// tampered archives are rejected.
//
// The accepted input is every archive SaveScan writes, and the same JSON
// object with whitespace anywhere and keys in any order; a missing key
// reads as zero, so archives from builds without "identity" still load.
// A repeated key, a key outside the v1 schema or in different case, a
// number that is not a plain unsigned integer, and anything but whitespace
// after the closing brace — a second archive included — are errors that
// name the byte offset. That is narrower than encoding/json, and whatever
// is accepted decodes to the result encoding/json's reflective decoder
// gives for the same bytes (accept ⇒ equal).
//
// Pass a *bytes.Reader over bytes already in memory: its bytes are parsed
// in place, not copied, and the result keeps no reference to them. A long
// class list is parsed on every core, with the same result and errors as
// a sequential parse.
func LoadScan(r io.Reader) (*ScanResult, error) {
	return archive.Decode(r)
}
