// Package frame is the one wire layer under the checkpoint log, the
// cluster and fleet protocols and the result archive: the CRC-guarded
// frame every one of them is made of, and the bounds-checked field codec
// their payloads are read with.
//
// # Frame
//
// All integers are little-endian.
//
//	frame = kind(1) length(u32) crc(u32) payload(length)
//
// crc is CRC-32 (IEEE) over the payload; length is at most MaxPayload. A
// frame cut short yields ErrTruncated, a frame whose length, CRC or
// expected kind does not verify yields ErrCorrupt. Frame kinds share one
// namespace: 'H' 'R' (checkpoint), 'S' 'L' 'W' 'U' 'B' 'F' 'V' (cluster),
// 'E' 'D' (archive entry).
//
// # Fields
//
// Payload fields are fixed-width little-endian integers, uvarints
// (encoding/binary), and byte strings prefixed by their uvarint length.
// A strictly ascending index list is stored as uvarint distances, the
// first one from -1 (AppendDelta, Reader.Delta). Reader decodes them with
// a sticky error, so a decoder parses linearly and checks once; the
// encoders are the Append* functions here plus encoding/binary's own.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

const (
	// HeaderLen is the size of a frame header: kind + length + crc.
	HeaderLen = 1 + 4 + 4
	// MaxPayload is the sanity bound on a frame's payload length.
	MaxPayload = 1 << 20
	// MaxIndex bounds the indices of an ascending list so that adding up
	// distances cannot overflow int on any platform.
	MaxIndex = 1 << 40
)

// Frame damage, distinguishable with errors.Is.
var (
	// ErrTruncated marks input cut mid-frame (a crash during a write).
	ErrTruncated = errors.New("frame: truncated tail")
	// ErrCorrupt marks a frame whose length, CRC or kind does not verify.
	ErrCorrupt = errors.New("frame: corrupt frame")
)

// Append appends one frame to dst.
func Append(dst []byte, kind byte, payload []byte) []byte {
	dst = append(dst, kind)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// Read parses the frame at off and returns its kind, its CRC-verified
// payload (aliasing data) and the offset of the next frame. It never
// panics.
func Read(data []byte, off int) (kind byte, payload []byte, next int, err error) {
	if off < 0 || len(data)-off < HeaderLen {
		return 0, nil, 0, fmt.Errorf("%w: frame header cut at offset %d", ErrTruncated, off)
	}
	kind = data[off]
	length := binary.LittleEndian.Uint32(data[off+1:])
	sum := binary.LittleEndian.Uint32(data[off+5:])
	if length > MaxPayload {
		return 0, nil, 0, fmt.Errorf("%w: frame length %d exceeds limit", ErrCorrupt, length)
	}
	end := off + HeaderLen + int(length)
	if end > len(data) {
		return 0, nil, 0, fmt.Errorf("%w: frame payload cut at offset %d", ErrTruncated, off)
	}
	payload = data[off+HeaderLen : end]
	if crc32.ChecksumIEEE(payload) != sum {
		return 0, nil, 0, fmt.Errorf("%w: CRC mismatch at offset %d", ErrCorrupt, off)
	}
	return kind, payload, end, nil
}

// Single parses a message that is exactly one frame of the given kind
// with nothing after it, and returns the payload.
func Single(data []byte, kind byte) ([]byte, error) {
	k, payload, next, err := Read(data, 0)
	switch {
	case err != nil:
		return nil, err
	case k != kind:
		return nil, fmt.Errorf("%w: frame kind %q, want %q", ErrCorrupt, k, kind)
	case next != len(data):
		return nil, fmt.Errorf("%w: %d bytes after frame", ErrCorrupt, len(data)-next)
	}
	return payload, nil
}

// AppendBytes appends b prefixed by its uvarint length.
func AppendBytes(dst, b []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(b))), b...)
}

// AppendString appends s prefixed by its uvarint length.
func AppendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// AppendDelta appends one element of a strictly ascending index list:
// its distance from the element before it, prev (-1 before the first).
func AppendDelta(dst []byte, prev, index int) []byte {
	return binary.AppendUvarint(dst, uint64(index-prev))
}

// Reader decodes the fields of one payload. It is bounds-checked and its
// error is sticky: after the first failure every method is a no-op that
// returns zero, so a decoder reads field after field and checks Finish
// once (loops also check Err, so that a forged count cannot spin them).
// Every error wraps the sentinel the reader was made with, which keeps
// each format's own error identity. A Reader is a plain value; declare
// it as a local and it stays on the stack.
type Reader struct {
	data []byte
	off  int
	base error
	err  error
}

// NewReader returns a reader over payload whose errors wrap base.
func NewReader(payload []byte, base error) Reader {
	return Reader{data: payload, base: base}
}

// Failf records a decode failure found by the caller — a field that
// parsed but breaks the format's own rules. Only the first failure is
// kept.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", r.base, fmt.Sprintf(format, args...))
	}
}

// Err returns the first failure so far.
func (r *Reader) Err() error { return r.err }

// Len returns the number of bytes not yet read.
func (r *Reader) Len() int { return len(r.data) - r.off }

// Take returns the next n bytes, aliasing the payload.
func (r *Reader) Take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Len() {
		r.Failf("payload cut at offset %d", r.off)
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	if b := r.Take(1); b != nil {
		return b[0]
	}
	return 0
}

// U32 reads a little-endian 32-bit integer.
func (r *Reader) U32() uint32 {
	if b := r.Take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian 64-bit integer.
func (r *Reader) U64() uint64 {
	if b := r.Take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Identity reads a 32-byte campaign identity hash.
func (r *Reader) Identity() (id [32]byte) {
	copy(id[:], r.Take(len(id)))
	return id
}

// Uvarint reads a uvarint; one that is cut or overflows 64 bits fails.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.Failf("bad uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Count reads the uvarint element count of a list of what and fails if
// it exceeds max.
func (r *Reader) Count(max uint64, what string) uint64 {
	n := r.Uvarint()
	if n > max {
		r.Failf("%d %s exceed limit", n, what)
		return 0
	}
	return n
}

// Delta reads one element of a strictly ascending index list — the
// decoding half of AppendDelta — and returns the index: prev plus a
// distance that must be positive and keep the index within MaxIndex.
func (r *Reader) Delta(prev int) int {
	d := r.Uvarint()
	if r.err != nil {
		return prev
	}
	if d == 0 || d > MaxIndex || prev > MaxIndex-int(d) {
		r.Failf("index delta %d breaks ascending order", d)
		return prev
	}
	return prev + int(d)
}

// Bytes reads a length-prefixed byte string, aliasing the payload.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err == nil && n > uint64(r.Len()) {
		r.Failf("length prefix exceeds payload at offset %d", r.off)
		return nil
	}
	return r.Take(int(n))
}

// String reads a length-prefixed string. (It also makes *Reader a
// fmt.Stringer, so formatting one consumes a field: print Err, not the
// reader.)
func (r *Reader) String() string { return string(r.Bytes()) }

// Finish returns the first failure, or an error if the payload was not
// read to its end.
func (r *Reader) Finish() error {
	if r.err == nil && r.off != len(r.data) {
		r.Failf("%d trailing bytes", r.Len())
	}
	return r.err
}
