// Package checkpoint implements the crash-safe campaign checkpoint log:
// an append-only, CRC-guarded, chunked binary record of completed
// fault-injection experiments.
//
// A campaign streams every completed (class, outcome) pair into a Writer,
// whose flusher goroutine commits them behind the scan's back. If the
// process is killed — OOM, power loss — the file retains every record the
// disk had acknowledged before the crash (a SIGINT, which closes the
// writer, loses none), and a campaign relaunch loads the valid prefix,
// truncates any torn tail and continues appending where the previous run
// stopped. The file is bound to a campaign
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
// The file only ever grows: there is one write(2) per commit — of every
// frame sealed since the previous commit, possibly several — followed by
// one fsync, so a crash can only produce torn or missing tail frames,
// never a half-updated earlier region. The decoder accepts exactly the
// longest valid frame prefix: a clean cut mid-frame yields ErrTruncated, a
// CRC or framing mismatch yields ErrCorrupt, and in both cases the records
// decoded before the damage are still returned so a resume can salvage
// them. A file cut inside its header is what a crash in Create leaves;
// Open starts it over when the bytes it holds are this campaign's own.
// Damage to the header, a bad magic, CRC-valid-but-malformed payloads or
// out-of-range class indices are unrecoverable (ErrFormat / ErrVersion /
// ErrIdentityMismatch): nothing in such a file can be trusted.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
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

// DefaultFlushEvery is the record count of an automatically sealed frame.
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

// Writer appends experiment records to a checkpoint file. Append only
// encodes: every FlushEvery records are sealed into one CRC-guarded frame
// and queued for the writer's flusher goroutine, which commits everything
// queued with one write followed by one fsync. While the disk keeps up, a
// commit holds one frame; while it does not, the frames sealed during a
// commit coalesce into the next (group commit), so whoever produces the
// records never waits for the disk except in Sync and Close. A crash loses
// only what the disk had not acknowledged.
//
// A Writer is not safe for concurrent use, and needs no one goroutine:
// the campaign engine calls it under its delivery lock, from whichever
// scan worker delivers, each call after the previous one.
type Writer struct {
	f *os.File
	// FlushEvery is the number of buffered records that seals a frame
	// (default DefaultFlushEvery). Lower it to tighten the crash-loss
	// window at the cost of more, smaller frames.
	FlushEvery int

	// The caller's side: the records of the frame being built, and what
	// Close returned.
	buf      []byte
	pending  int
	closeErr error

	// syncFile makes what was written durable: f.Sync, a field only so
	// that tests can slow it down or fail it.
	syncFile func() error

	// Shared with the flusher, guarded by mu. cond is signalled whenever
	// one of these changes: frames were queued or closing was set (the
	// flusher waits for that), a commit ended (Sync waits for that).
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []byte        // sealed frames not yet handed to write(2)
	queued  int           // frames in queue
	sealed  int           // frames sealed so far
	durable int           // frames written and fsynced
	closing bool          // Close wants the flusher gone
	done    chan struct{} // closed as the flusher exits; nil until the first seal starts it
	// err is the first write, fsync or close error. It is written once,
	// before failed is set: whoever saw failed may read it without mu.
	err    error
	failed atomic.Bool

	// Telemetry instruments, nil (no-op) until Instrument is called.
	flushes *telemetry.Counter
	bytes   *telemetry.Counter
	fsync   *telemetry.Histogram
}

func newWriter(f *os.File) *Writer {
	w := &Writer{f: f, FlushEvery: DefaultFlushEvery, syncFile: f.Sync}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// Instrument attaches checkpoint I/O metrics from the registry:
// "checkpoint.flushes" counts the frames committed, "checkpoint.bytes"
// their bytes, and "checkpoint.fsync" takes one fsync latency sample per
// commit — so flushes over fsync samples is the group-commit coalescing
// factor. Call it before the first Append. Safe with a nil registry (the
// instruments stay no-ops).
func (w *Writer) Instrument(r *telemetry.Registry) {
	w.flushes = r.Counter("checkpoint.flushes")
	w.bytes = r.Counter("checkpoint.bytes")
	w.fsync = r.Histogram("checkpoint.fsync")
}

// fileHead is the magic and header frame every checkpoint of h starts with.
func fileHead(h Header) []byte {
	payload := binary.LittleEndian.AppendUint32(nil, Version)
	payload = append(payload, h.Identity[:]...)
	payload = binary.LittleEndian.AppendUint64(payload, h.Classes)
	return frame.Append([]byte(magic), kindHeader, payload)
}

// Create starts a fresh checkpoint at path. It refuses to overwrite an
// existing file (use Open to resume, or remove the file explicitly). The
// header is written but not fsynced: the first commit's fsync covers it,
// and Open starts over from a file a crash left with part of it.
func Create(path string, h Header) (*Writer, error) {
	return create(path, h, os.O_EXCL)
}

func create(path string, h Header, flag int) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|flag, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if _, err = f.Write(fileHead(h)); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return newWriter(f), nil
}

// Open resumes a checkpoint: it validates the header against h (same
// version, identity and class count), loads the completed records,
// truncates any torn or corrupt tail and positions the writer for
// appending. If the file does not exist yet, Open creates it, so a
// "resume" of a first run degrades to a fresh campaign — and so does the
// resume of a run that died inside Create: a file holding only part of
// this campaign's own magic and header is started over. The returned map
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
	if head := fileHead(h); len(data) < len(head) && bytes.HasPrefix(head, data) {
		w, cerr := create(path, h, os.O_TRUNC)
		return w, nil, cerr
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
	return newWriter(f), entryMap(entries), nil
}

// Append buffers one completed experiment record and seals a frame every
// FlushEvery records. It never waits for the disk. Errors are sticky: once
// a commit has failed, every subsequent call (and Close) reports the
// failure.
func (w *Writer) Append(class int, outcome uint8) error {
	if w.failed.Load() {
		return w.err
	}
	w.buf = binary.AppendUvarint(w.buf, uint64(class))
	w.buf = append(w.buf, outcome)
	w.pending++
	if w.pending >= w.FlushEvery {
		w.seal()
	}
	return nil
}

// seal frames the buffered records and queues the frame for the flusher,
// which the first seal starts.
func (w *Writer) seal() {
	if w.pending == 0 {
		return
	}
	w.mu.Lock()
	w.queue = frame.Append(w.queue, kindRecords, w.buf)
	w.queued++
	w.sealed++
	if w.done == nil {
		w.done = make(chan struct{})
		go w.flusher()
	}
	w.mu.Unlock()
	w.cond.Broadcast()
	w.buf = w.buf[:0]
	w.pending = 0
}

// flusher commits the queue until a commit fails or Close asks it to go.
// A commit takes everything queued, so it covers every frame sealed
// before it started, and no frame is ever written after a failed one.
func (w *Writer) flusher() {
	var spare []byte
	w.mu.Lock()
	defer close(w.done)
	defer w.mu.Unlock()
	for {
		for w.queued == 0 && !w.closing {
			w.cond.Wait()
		}
		if w.queued == 0 {
			return
		}
		batch, frames := w.queue, w.queued
		w.queue, w.queued = spare[:0], 0
		w.mu.Unlock()
		err := w.commit(batch, frames)
		w.mu.Lock()
		spare = batch
		if err != nil {
			w.fail(err)
			w.cond.Broadcast()
			return
		}
		w.durable += frames
		w.cond.Broadcast()
	}
}

// fail makes err the writer's sticky error. No commit is in flight: the
// caller is the flusher holding mu, or Close after the flusher has gone.
func (w *Writer) fail(err error) {
	w.err = fmt.Errorf("checkpoint: %w", err)
	w.failed.Store(true)
}

// commit makes a batch of whole frames durable: one write, one fsync.
func (w *Writer) commit(batch []byte, frames int) error {
	if _, err := w.f.Write(batch); err != nil {
		return err
	}
	var t0 time.Time
	if w.fsync != nil {
		t0 = time.Now()
	}
	if err := w.syncFile(); err != nil {
		return err
	}
	if w.fsync != nil {
		w.fsync.Observe(time.Since(t0))
	}
	w.flushes.Add(uint64(frames))
	w.bytes.Add(uint64(len(batch)))
	return nil
}

// Sync seals the buffered records and returns once every record appended
// so far is on disk (or a commit has failed).
func (w *Writer) Sync() error {
	if w.failed.Load() {
		return w.err
	}
	w.seal()
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.durable < w.sealed && w.err == nil {
		w.cond.Wait()
	}
	return w.err
}

// Close makes every appended record durable as Sync does, stops the
// flusher and closes the file. Closing again returns the same result;
// appending to a closed writer fails.
func (w *Writer) Close() error {
	if w.f == nil {
		return w.closeErr
	}
	err := w.Sync()
	w.mu.Lock()
	w.closing = true
	w.mu.Unlock()
	if w.done != nil {
		w.cond.Broadcast()
		<-w.done
	}
	cerr := w.f.Close()
	w.f = nil
	if err == nil && cerr != nil {
		w.fail(cerr)
		err = w.err
	}
	w.closeErr = err
	if err == nil {
		w.fail(os.ErrClosed)
	}
	return err
}
