// Package checkpoint implements the crash-safe campaign checkpoint log:
// an append-only, CRC-guarded, chunked binary record of completed
// fault-injection experiments.
//
// A campaign streams every completed (class, outcome) pair into a Writer.
// If the process is killed — SIGINT, OOM, power loss — the file retains
// every record that was flushed before the crash, and a campaign relaunch
// loads the valid prefix, truncates any torn tail and continues appending
// where the previous run stopped. The file is bound to a campaign
// identity hash (program image + fault-space kind + outcome-relevant
// config, see campaign.Target.CampaignIdentity), so a stale checkpoint
// can never be resumed against a different target.
//
// # File format
//
// The file is a magic string followed by CRC-guarded frames — the frame
// grammar, its little-endian integers and its uvarints are those of
// internal/frame, shared with the cluster wire and the result archive:
//
//	file   = magic frame*
//	magic  = "FAVCKPT1" (8 bytes)
//	'H'  header, exactly one, first: version(u32) identity(32) classes(u64)
//	'R'  records: repeated { class(uvarint) outcome(1 byte) }
//
// Frames are written with a single write(2) each and fsynced, so a crash
// can only produce a torn or missing tail frame — never a half-updated
// earlier region. The decoder accepts exactly the longest valid frame
// prefix: a clean cut mid-frame yields ErrTruncated, a CRC or framing
// mismatch yields ErrCorrupt, and in both cases the records decoded
// before the damage are still returned so a resume can salvage them.
// Damage to the header, a bad magic, CRC-valid-but-malformed payloads or
// out-of-range class indices are unrecoverable (ErrFormat / ErrVersion /
// ErrIdentityMismatch): nothing in such a file can be trusted.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"time"

	"faultspace/internal/frame"
	"faultspace/internal/telemetry"
)

// Version is the checkpoint format version written by this package.
const Version = 1

const (
	magic       = "FAVCKPT1"
	kindHeader  = 'H'
	kindRecords = 'R'
)

// DefaultFlushEvery is the record count between automatic flushes.
const DefaultFlushEvery = 256

// Decoder sentinel errors, distinguishable with errors.Is.
var (
	// ErrFormat marks unrecoverable structural damage: bad magic, broken
	// header, malformed CRC-valid payloads, out-of-range class indices.
	ErrFormat = errors.New("checkpoint: malformed file")
	// ErrVersion marks a checkpoint written by an incompatible format
	// version.
	ErrVersion = errors.New("checkpoint: unsupported version")
	// ErrTruncated marks a file cut mid-frame (crash during a write).
	// Records before the cut are valid and returned.
	ErrTruncated = frame.ErrTruncated
	// ErrCorrupt marks a frame whose CRC or framing does not verify.
	// Records before the damage are valid and returned.
	ErrCorrupt = frame.ErrCorrupt
	// ErrIdentityMismatch marks a checkpoint whose campaign identity does
	// not match the campaign being resumed.
	ErrIdentityMismatch = errors.New("checkpoint: campaign identity mismatch")
)

// Header identifies the campaign a checkpoint belongs to.
type Header struct {
	// Version is the format version (Version for files this package writes).
	Version uint32
	// Identity is the campaign identity hash; see
	// campaign.Target.CampaignIdentity.
	Identity [32]byte
	// Classes is the total number of equivalence classes of the campaign.
	// Every record's class index must be below it.
	Classes uint64
}

// Entry is one decoded experiment record.
type Entry struct {
	Class   int
	Outcome uint8
}

// Decode parses a complete checkpoint image. It never panics. On
// ErrTruncated or ErrCorrupt the entries decoded before the damage are
// returned alongside the error; on any other error the data is unusable.
func Decode(data []byte) (Header, []Entry, error) {
	h, entries, _, err := decodeAll(data)
	return h, entries, err
}

// decodeAll parses data and additionally reports goodLen, the byte
// offset after the last fully-valid frame — the truncation point a
// resuming writer must cut the file to before appending.
func decodeAll(data []byte) (h Header, entries []Entry, goodLen int64, err error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return h, nil, 0, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	kind, payload, next, ferr := frame.Read(data, len(magic))
	r := frame.NewReader(payload, ErrFormat)
	h = Header{Version: r.U32(), Identity: r.Identity(), Classes: r.U64()}
	if ferr != nil || kind != kindHeader || r.Finish() != nil {
		// Without a trustworthy header nothing else can be interpreted.
		return Header{}, nil, 0, fmt.Errorf("%w: bad header frame", ErrFormat)
	}
	if h.Version != Version {
		return h, nil, 0, fmt.Errorf("%w: file version %d, this build reads %d", ErrVersion, h.Version, Version)
	}
	goodLen = int64(next)

	for off := next; off < len(data); {
		kind, payload, next, ferr = frame.Read(data, off)
		if ferr != nil {
			return h, entries, goodLen, ferr
		}
		if kind != kindRecords {
			return h, entries, goodLen, fmt.Errorf("%w: unknown frame kind %q", ErrCorrupt, kind)
		}
		batch, perr := decodeRecords(payload, h.Classes)
		if perr != nil {
			// The CRC verified, so these bytes are exactly what some writer
			// produced: malformed contents are a format violation, not
			// recoverable tail damage.
			return h, entries, goodLen, perr
		}
		entries = append(entries, batch...)
		off = next
		goodLen = int64(next)
	}
	return h, entries, goodLen, nil
}

// decodeRecords parses the entries of one CRC-verified records payload.
func decodeRecords(payload []byte, classes uint64) ([]Entry, error) {
	var batch []Entry
	r := frame.NewReader(payload, ErrFormat)
	for r.Len() > 0 && r.Err() == nil {
		class, outcome := r.Uvarint(), r.U8()
		if class >= classes {
			r.Failf("class %d outside campaign of %d classes", class, classes)
		}
		batch = append(batch, Entry{Class: int(class), Outcome: outcome})
	}
	return batch, r.Err()
}

// Load reads a checkpoint file for analysis. It returns the header and
// the completed outcomes keyed by class index (last record wins). On
// ErrTruncated or ErrCorrupt the salvageable records are still returned.
func Load(path string) (Header, map[int]uint8, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Header{}, nil, err
	}
	h, entries, _, derr := decodeAll(data)
	return h, entryMap(entries), derr
}

func entryMap(entries []Entry) map[int]uint8 {
	m := make(map[int]uint8, len(entries))
	for _, e := range entries {
		m[e.Class] = e.Outcome
	}
	return m
}

// Writer appends experiment records to a checkpoint file. It buffers
// records and writes them as one CRC-framed chunk per flush (a single
// write followed by fsync), so a crash can only lose the unflushed tail.
// A Writer is not safe for concurrent use; the campaign engine calls it
// from its single collector goroutine.
type Writer struct {
	f       *os.File
	buf     []byte
	pending int
	// FlushEvery is the number of buffered records that triggers an
	// automatic flush (default DefaultFlushEvery). Lower it to tighten
	// the crash-loss window at the cost of more fsyncs.
	FlushEvery int
	err        error

	// Telemetry instruments, nil (no-op) until Instrument is called.
	flushes *telemetry.Counter
	bytes   *telemetry.Counter
	fsync   *telemetry.Histogram
}

// Instrument attaches checkpoint I/O metrics from the registry:
// "checkpoint.flushes" and "checkpoint.bytes" count frame flushes and
// bytes written, "checkpoint.fsync" is the fsync latency histogram.
// Safe with a nil registry (the instruments stay no-ops).
func (w *Writer) Instrument(r *telemetry.Registry) {
	w.flushes = r.Counter("checkpoint.flushes")
	w.bytes = r.Counter("checkpoint.bytes")
	w.fsync = r.Histogram("checkpoint.fsync")
}

// Create starts a fresh checkpoint at path. It refuses to overwrite an
// existing file (use Open to resume, or remove the file explicitly).
func Create(path string, h Header) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	payload := binary.LittleEndian.AppendUint32(nil, Version)
	payload = append(payload, h.Identity[:]...)
	payload = binary.LittleEndian.AppendUint64(payload, h.Classes)
	if _, err = f.Write(frame.Append([]byte(magic), kindHeader, payload)); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &Writer{f: f, FlushEvery: DefaultFlushEvery}, nil
}

// Open resumes a checkpoint: it validates the header against h (same
// version, identity and class count), loads the completed records,
// truncates any torn or corrupt tail and positions the writer for
// appending. If the file does not exist yet, Open creates it, so a
// "resume" of a first run degrades to a fresh campaign. The returned map
// holds the already-completed outcomes by class index.
func Open(path string, h Header) (*Writer, map[int]uint8, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		w, cerr := Create(path, h)
		return w, nil, cerr
	}
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	fh, entries, goodLen, derr := decodeAll(data)
	if derr != nil && !errors.Is(derr, ErrTruncated) && !errors.Is(derr, ErrCorrupt) {
		return nil, nil, derr
	}
	if fh.Identity != h.Identity {
		return nil, nil, fmt.Errorf("%w: checkpoint was written by a different campaign (program, fault space or config changed)", ErrIdentityMismatch)
	}
	if fh.Classes != h.Classes {
		return nil, nil, fmt.Errorf("%w: checkpoint covers %d classes, campaign has %d", ErrIdentityMismatch, fh.Classes, h.Classes)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	// Cut the torn tail (if any) so new frames extend a valid prefix.
	if err := f.Truncate(goodLen); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	if _, err := f.Seek(goodLen, 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &Writer{f: f, FlushEvery: DefaultFlushEvery}, entryMap(entries), nil
}

// Append buffers one completed experiment record, flushing automatically
// every FlushEvery records. Errors are sticky: once a flush fails, every
// subsequent call (and Close) reports the failure.
func (w *Writer) Append(class int, outcome uint8) error {
	if w.err != nil {
		return w.err
	}
	w.buf = binary.AppendUvarint(w.buf, uint64(class))
	w.buf = append(w.buf, outcome)
	w.pending++
	if w.pending >= w.FlushEvery {
		return w.flush()
	}
	return nil
}

// Sync flushes buffered records to disk as one frame and fsyncs.
func (w *Writer) Sync() error {
	if w.err != nil {
		return w.err
	}
	return w.flush()
}

func (w *Writer) flush() error {
	if w.pending == 0 {
		return nil
	}
	rec := frame.Append(make([]byte, 0, frame.HeaderLen+len(w.buf)), kindRecords, w.buf)
	if _, err := w.f.Write(rec); err != nil {
		w.err = fmt.Errorf("checkpoint: %w", err)
		return w.err
	}
	var t0 time.Time
	if w.fsync != nil {
		t0 = time.Now()
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("checkpoint: %w", err)
		return w.err
	}
	if w.fsync != nil {
		w.fsync.Observe(time.Since(t0))
	}
	w.flushes.Inc()
	w.bytes.Add(uint64(len(rec)))
	w.buf = w.buf[:0]
	w.pending = 0
	return nil
}

// Close flushes pending records and closes the file.
func (w *Writer) Close() error {
	if w.f == nil {
		return w.err
	}
	ferr := w.flush()
	cerr := w.f.Close()
	w.f = nil
	if ferr != nil {
		return ferr
	}
	if cerr != nil {
		w.err = fmt.Errorf("checkpoint: %w", cerr)
		return w.err
	}
	return nil
}
