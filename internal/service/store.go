// Package service implements the campaign-as-a-service layer: a
// long-lived, multi-tenant coordinator that accepts campaign submissions
// over HTTP, runs many campaigns concurrently against a shared worker
// fleet, and fronts everything with a persistent content-addressed
// result archive keyed by the campaign identity hash. It is the one HTTP
// server of the worker protocol: a single distributed scan (the root
// package's ServeScan) is a campaign hosted on an in-memory service too.
//
// The archive is what turns the identity hash into a cache key: all
// execution-side choices (strategy, placement, predecode)
// are provably outcome-invariant (DESIGN.md invariants 8–11) and
// excluded from the hash, and the scan-archive encoding is
// deterministic, so one identity maps to exactly one report byte
// sequence. A duplicate submission is therefore answered from the
// archive, byte-identical to a live scan, without touching the fleet
// (invariant 12).
//
// The package's binary format — the archive entry files (store.go) — is
// made of internal/frame frames read with its field Reader, like the
// cluster wire the service speaks to its workers.
//
// The service is observed the way a scan is (DESIGN.md §4d): its own
// registry and one registry per campaign in /v1/status and /metrics,
// each campaign's span timeline at /v1/campaigns/<id>/trace, and
// life-cycle sentences through Options.Logf. A campaign holds its
// host only while it runs and its fleet drains; what status and
// the trace endpoint serve afterwards — the last progress snapshot and
// the span recorder — is kept when the campaign is retired.
package service

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"faultspace/internal/frame"
)

// Archive entry framing, layered on internal/frame: a file is magic, one
// kindEntry frame (identity + total report length as a uvarint), then
// the report bytes chunked into kindData frames small enough for the
// frame-length sanity bound.
const (
	storeMagic = "FAVARCH1"
	kindEntry  = 'E'
	kindData   = 'D'
	// chunkSize keeps every data frame well under frame.MaxPayload.
	chunkSize = 1 << 19
	// entryExt names archive entry files: <identity-hex>.far.
	entryExt = ".far"
)

// ErrEntry marks a structurally invalid archive entry (bad magic,
// malformed framing, length mismatch). CRC damage and truncation keep
// their frame.ErrCorrupt/frame.ErrTruncated identity so torn tails
// remain distinguishable.
var ErrEntry = errors.New("service: malformed archive entry")

// EncodeEntry encodes one archive entry file: an identity-keyed report.
func EncodeEntry(id [32]byte, report []byte) []byte {
	p := make([]byte, 0, 48)
	p = append(p, id[:]...)
	p = binary.AppendUvarint(p, uint64(len(report)))
	out := frame.Append([]byte(storeMagic), kindEntry, p)
	for off := 0; off < len(report); off += chunkSize {
		end := off + chunkSize
		if end > len(report) {
			end = len(report)
		}
		out = frame.Append(out, kindData, report[off:end])
	}
	return out
}

// DecodeEntry decodes an archive entry file, verifying magic, CRC frames
// and the announced report length. Truncation surfaces as
// frame.ErrTruncated (a torn tail, recoverable by re-running the
// campaign), CRC damage as frame.ErrCorrupt.
//
// A non-empty report is returned inside data's own storage. One of a single
// data frame — every report under chunkSize — is a slice of data, which
// DecodeEntry leaves as it was. One of several frames is made by moving
// each frame's payload over the frame headers before it, so that it ends
// up contiguous behind the first frame's header: the bytes of data after
// that header are rewritten, whether the entry then decodes or not. A
// caller that needs data afterwards passes a copy.
func DecodeEntry(data []byte) (id [32]byte, report []byte, err error) {
	id, total, off, err := entryHead(data)
	if err != nil {
		return id, nil, err
	}
	start := off + frame.HeaderLen // where the report's first byte is
	n := uint64(0)                 // the report bytes assembled so far
	for n < total {
		var kind byte
		var payload []byte
		kind, payload, off, err = frame.Read(data, off)
		if err != nil {
			return id, nil, err
		}
		if kind != kindData {
			return id, nil, fmt.Errorf("%w: frame kind %q inside report, want %q", ErrEntry, kind, byte(kindData))
		}
		if n+uint64(len(payload)) > total {
			return id, nil, fmt.Errorf("%w: report overruns announced length %d", ErrEntry, total)
		}
		if at := start + int(n); off-len(payload) != at {
			copy(data[at:], payload)
		}
		n += uint64(len(payload))
	}
	if off != len(data) {
		return id, nil, fmt.Errorf("%w: %d trailing bytes after report", ErrEntry, len(data)-off)
	}
	if total == 0 {
		return id, []byte{}, nil
	}
	return id, data[start : start+int(total)], nil
}

// entryHead reads an entry file's magic and its CRC-checked kindEntry
// frame, and returns the identity, the report length that frame announces
// and the offset of the first data frame. data need hold no more of the
// file than that.
func entryHead(data []byte) (id [32]byte, total uint64, off int, err error) {
	if len(data) < len(storeMagic) {
		return id, 0, 0, fmt.Errorf("%w: file cut before magic", frame.ErrTruncated)
	}
	if string(data[:len(storeMagic)]) != storeMagic {
		return id, 0, 0, fmt.Errorf("%w: bad magic", ErrEntry)
	}
	kind, payload, off, err := frame.Read(data, len(storeMagic))
	if err != nil {
		return id, 0, 0, err
	}
	if kind != kindEntry {
		return id, 0, 0, fmt.Errorf("%w: first frame kind %q, want %q", ErrEntry, kind, byte(kindEntry))
	}
	r := frame.NewReader(payload, ErrEntry)
	id = r.Identity()
	total = r.Uvarint()
	return id, total, off, r.Finish()
}

// entrySize returns the size of the entry file whose kindEntry frame ends
// at headLen and announces a report of total bytes, or -1 when no file
// could be that long.
func entrySize(headLen int, total uint64) int64 {
	if total > 1<<62 {
		return -1
	}
	frames := (total + chunkSize - 1) / chunkSize
	return int64(headLen) + int64(frames)*frame.HeaderLen + int64(total)
}

// storeEntry tracks one archived report on disk.
type storeEntry struct {
	size int64
	used uint64 // recency sequence; smallest = least recently used
}

// Store is the on-disk content-addressed result archive: write-once
// entries keyed by campaign identity, with an LRU size cap. One file per
// entry keeps eviction a single unlink and bounds torn-tail damage to
// the entry being written when the process died.
type Store struct {
	dir string
	max int64 // size cap in bytes; 0 = unbounded

	mu      sync.Mutex
	entries map[[32]byte]*storeEntry
	size    int64
	seq     uint64
	evicted uint64
}

// OpenStore opens (creating if necessary) an archive directory and
// recovers its index from each entry file's head and size: its magic,
// its CRC-checked kindEntry frame (identity and announced report length),
// its name, and a size equal to the framing that length implies. Files
// that fail these — torn tails from a crash mid-write, foreign files with
// the entry extension, misnamed entries — are deleted: the archive is a
// cache, and re-running a campaign is always sound, while serving a
// damaged report never is. Report payloads are not read here; their CRCs
// are checked by Get, which drops a damaged entry and answers a miss.
// maxBytes caps the total archive size; 0 means unbounded.
func OpenStore(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("service: archive: %w", err)
	}
	s := &Store{dir: dir, max: maxBytes, entries: make(map[[32]byte]*storeEntry)}

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("service: archive: %w", err)
	}
	type found struct {
		id    [32]byte
		size  int64
		mtime time.Time
	}
	var ok []found
	for _, de := range ents {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, entryExt) {
			continue
		}
		path := filepath.Join(dir, name)
		id, info, valid, err := readHead(path)
		if err != nil {
			return nil, fmt.Errorf("service: archive: %w", err)
		}
		if !valid || name != hex.EncodeToString(id[:])+entryExt {
			// Torn tail, a foreign file or a misnamed entry: drop it so
			// the campaign can be re-run and re-archived cleanly.
			if err := os.Remove(path); err != nil {
				return nil, fmt.Errorf("service: archive: drop damaged entry: %w", err)
			}
			continue
		}
		ok = append(ok, found{id: id, size: info.Size(), mtime: info.ModTime()})
	}
	// Seed recency from mtimes so LRU order survives restarts (Get
	// touches entries via Chtimes).
	sort.Slice(ok, func(i, j int) bool { return ok[i].mtime.Before(ok[j].mtime) })
	for _, f := range ok {
		s.seq++
		s.entries[f.id] = &storeEntry{size: f.size, used: s.seq}
		s.size += f.size
	}
	return s, nil
}

// readHead reads the head of the entry file at path and reports whether
// it is one: a valid magic and kindEntry frame, and the file size they
// imply.
func readHead(path string) (id [32]byte, info os.FileInfo, valid bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return id, nil, false, err
	}
	defer f.Close()
	if info, err = f.Stat(); err != nil {
		return id, nil, false, err
	}
	// Magic, then the kindEntry frame: identity and a uvarint length.
	var head [len(storeMagic) + frame.HeaderLen + 32 + binary.MaxVarintLen64]byte
	n, err := io.ReadFull(f, head[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return id, nil, false, err
	}
	id, total, off, err := entryHead(head[:n])
	return id, info, err == nil && info.Size() == entrySize(off, total), nil
}

func (s *Store) path(id [32]byte) string {
	return filepath.Join(s.dir, hex.EncodeToString(id[:])+entryExt)
}

// Get returns the archived report for an identity, or (nil, false) on a
// miss. A hit refreshes the entry's LRU recency. Get is where a report's
// payload CRCs are checked (OpenStore reads only heads): an entry that
// fails to decode is dropped — its file deleted, Len and Size shrunk —
// and reported as a miss, so a damaged report is never served. The
// report is assembled inside the one buffer the file is read into.
func (s *Store) Get(id [32]byte) ([]byte, bool) {
	s.mu.Lock()
	e := s.entries[id]
	if e == nil {
		s.mu.Unlock()
		return nil, false
	}
	s.seq++
	e.used = s.seq
	s.mu.Unlock()

	path := s.path(id)
	data, err := os.ReadFile(path)
	if err == nil {
		var gotID [32]byte
		var report []byte
		if gotID, report, err = DecodeEntry(data); err == nil && gotID == id {
			// Touch the file so recency survives a restart; best effort.
			now := time.Now()
			os.Chtimes(path, now, now)
			return report, true
		}
	}
	s.mu.Lock()
	if cur := s.entries[id]; cur != nil {
		delete(s.entries, id)
		s.size -= cur.size
	}
	s.mu.Unlock()
	os.Remove(path)
	return nil, false
}

// Put archives a report under its identity. Entries are write-once: a
// Put for an existing identity is a no-op (the encoding is
// deterministic, so the bytes could not differ). The write is atomic —
// temp file, fsync, rename, directory fsync — so a crash leaves either
// no entry or a complete one; a torn temp file is swept by OpenStore.
func (s *Store) Put(id [32]byte, report []byte) error {
	s.mu.Lock()
	if s.entries[id] != nil {
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()

	data := EncodeEntry(id, report)
	path := s.path(id)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return fmt.Errorf("service: archive: %w", err)
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("service: archive: %w", err)
	}
	syncDir(s.dir)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.entries[id] == nil {
		s.seq++
		s.entries[id] = &storeEntry{size: int64(len(data)), used: s.seq}
		s.size += int64(len(data))
	}
	s.evictLocked(id)
	return nil
}

// evictLocked unlinks least-recently-used entries until the archive fits
// the size cap again. The entry just written (keep) is exempt, so a
// single oversized report still gets archived rather than thrashing.
func (s *Store) evictLocked(keep [32]byte) {
	if s.max <= 0 {
		return
	}
	for s.size > s.max {
		var victim [32]byte
		var ve *storeEntry
		for id, e := range s.entries {
			if id == keep {
				continue
			}
			if ve == nil || e.used < ve.used {
				victim, ve = id, e
			}
		}
		if ve == nil {
			return
		}
		delete(s.entries, victim)
		s.size -= ve.size
		s.evicted++
		os.Remove(s.path(victim))
	}
}

// Len returns the number of archived reports.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Size returns the total archive size in bytes.
func (s *Store) Size() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Evicted returns the number of entries evicted by the size cap since
// the store was opened.
func (s *Store) Evicted() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evicted
}

// Sync fsyncs the archive directory — the shutdown flush. Every Put is
// already individually durable; this only pins down the final directory
// state.
func (s *Store) Sync() {
	syncDir(s.dir)
}

// syncDir fsyncs a directory, best effort (not all platforms support it).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
