package checkpoint

import (
	"encoding/binary"
	"testing"

	"faultspace/internal/frame"
)

// fuzzSeedFile builds a small valid checkpoint image for the fuzz corpus.
func fuzzSeedFile() []byte {
	h := Header{Version: Version, Classes: 64}
	for i := range h.Identity {
		h.Identity[i] = byte(i)
	}
	hp := make([]byte, headerLen)
	binary.LittleEndian.PutUint32(hp[0:4], h.Version)
	copy(hp[4:36], h.Identity[:])
	binary.LittleEndian.PutUint64(hp[36:44], h.Classes)
	file := append([]byte{}, magic...)
	file = frame.Append(file, kindHeader, hp)
	var rec []byte
	for i := 0; i < 20; i++ {
		rec = binary.AppendUvarint(rec, uint64(i*3))
		rec = append(rec, byte(i%8))
	}
	file = frame.Append(file, kindRecords, rec[:len(rec)/2*2])
	return frame.Append(file, kindRecords, []byte{0x3f, 0x07})
}

// FuzzCheckpointDecode hammers the decoder with mutated checkpoint
// images: truncations, flipped CRC bytes, version/kind mutations and
// arbitrary garbage. The decoder must never panic and never hand back
// records that violate the header's class bound — corrupted input yields
// an error, not silently wrong outcomes.
func FuzzCheckpointDecode(f *testing.F) {
	valid := fuzzSeedFile()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(magic))
	for _, cut := range []int{1, len(magic), len(magic) + 3, len(valid) / 2, len(valid) - 1} {
		if cut < len(valid) {
			f.Add(valid[:cut])
		}
	}
	flipped := append([]byte{}, valid...)
	flipped[len(flipped)-1] ^= 0x80 // CRC/payload flip in the tail frame
	f.Add(flipped)
	versioned := append([]byte{}, valid...)
	versioned[len(magic)+frame.HeaderLen] = 2 // header version byte
	f.Add(versioned)

	f.Fuzz(func(t *testing.T, data []byte) {
		h, entries, err := Decode(data)
		if err != nil {
			// Even on ErrTruncated/ErrCorrupt, salvaged entries must
			// respect the header bound.
			for _, e := range entries {
				if uint64(e.Class) >= h.Classes {
					t.Fatalf("error path leaked out-of-range class %d (classes %d)", e.Class, h.Classes)
				}
			}
			return
		}
		if h.Version != Version {
			t.Fatalf("successful decode with foreign version %d", h.Version)
		}
		for _, e := range entries {
			if uint64(e.Class) >= h.Classes {
				t.Fatalf("decoded class %d outside campaign of %d classes", e.Class, h.Classes)
			}
		}
		// A successful decode must be byte-stable: re-encoding the parsed
		// records through a fresh writer and re-decoding them must yield
		// the same entries (exercised cheaply via the record codec).
		var rec []byte
		for _, e := range entries {
			rec = binary.AppendUvarint(rec, uint64(e.Class))
			rec = append(rec, e.Outcome)
		}
		back, perr := decodeRecords(rec, h.Classes)
		if perr != nil {
			t.Fatalf("re-encode of decoded records failed: %v", perr)
		}
		if len(back) != len(entries) {
			t.Fatalf("re-decode yielded %d records, want %d", len(back), len(entries))
		}
		for i := range back {
			if back[i] != entries[i] {
				t.Fatalf("record %d changed across re-encode: %+v != %+v", i, back[i], entries[i])
			}
		}
	})
}
