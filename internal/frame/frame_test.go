package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

var errTest = errors.New("test: malformed")

func TestFrameRoundTripAndDamage(t *testing.T) {
	data := Append([]byte("magic"), 'A', []byte("first"))
	data = Append(data, 'B', nil)
	kind, payload, next, err := Read(data, len("magic"))
	if err != nil || kind != 'A' || string(payload) != "first" {
		t.Fatalf("first frame: kind %q payload %q err %v", kind, payload, err)
	}
	kind, payload, next, err = Read(data, next)
	if err != nil || kind != 'B' || len(payload) != 0 || next != len(data) {
		t.Fatalf("second frame: kind %q payload %q next %d err %v", kind, payload, next, err)
	}

	one := Append(nil, 'A', []byte("payload"))
	for cut := 0; cut < len(one); cut++ {
		if _, _, _, err := Read(one[:cut], 0); !errors.Is(err, ErrTruncated) {
			t.Errorf("cut at %d: err = %v, want ErrTruncated", cut, err)
		}
	}
	for _, off := range []int{-1, len(one), len(one) + 1} {
		if _, _, _, err := Read(one, off); !errors.Is(err, ErrTruncated) {
			t.Errorf("offset %d: err = %v, want ErrTruncated", off, err)
		}
	}
	flipped := append([]byte(nil), one...)
	flipped[len(flipped)-1] ^= 1
	if _, _, _, err := Read(flipped, 0); !errors.Is(err, ErrCorrupt) {
		t.Errorf("flipped payload bit: err = %v, want ErrCorrupt", err)
	}
	huge := append([]byte(nil), one...)
	binary.LittleEndian.PutUint32(huge[1:], MaxPayload+1)
	if _, _, _, err := Read(huge, 0); !errors.Is(err, ErrCorrupt) {
		t.Errorf("length over the bound: err = %v, want ErrCorrupt", err)
	}
	if got := Append(nil, 'A', make([]byte, MaxPayload)); len(got) != HeaderLen+MaxPayload {
		t.Fatalf("largest frame is %d bytes", len(got))
	} else if _, _, _, err := Read(got, 0); err != nil {
		t.Errorf("largest frame: %v", err)
	}
}

func TestSingle(t *testing.T) {
	one := Append(nil, 'A', []byte("x"))
	if payload, err := Single(one, 'A'); err != nil || string(payload) != "x" {
		t.Fatalf("Single = %q, %v", payload, err)
	}
	if _, err := Single(one, 'B'); !errors.Is(err, ErrCorrupt) {
		t.Errorf("wrong kind: err = %v, want ErrCorrupt", err)
	}
	if _, err := Single(append(one, 0), 'A'); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing byte: err = %v, want ErrCorrupt", err)
	}
	if _, err := Single(Append(one, 'A', nil), 'A'); !errors.Is(err, ErrCorrupt) {
		t.Errorf("second frame: err = %v, want ErrCorrupt", err)
	}
	if _, err := Single(nil, 'A'); !errors.Is(err, ErrTruncated) {
		t.Errorf("empty input: err = %v, want ErrTruncated", err)
	}
}

func TestReaderFields(t *testing.T) {
	var id [32]byte
	for i := range id {
		id[i] = byte(i)
	}
	p := []byte{0x7f}
	p = binary.LittleEndian.AppendUint32(p, 0xdeadbeef)
	p = binary.LittleEndian.AppendUint64(p, 1<<63|5)
	p = binary.AppendUvarint(p, 300)
	p = append(p, id[:]...)
	p = AppendString(p, "héllo")
	p = AppendBytes(p, nil)
	p = AppendBytes(p, []byte{1, 2, 3})
	list := []int{0, 1, 5, 1000, MaxIndex}
	p = binary.AppendUvarint(p, uint64(len(list)))
	prev := -1
	for _, v := range list {
		p = AppendDelta(p, prev, v)
		prev = v
	}

	r := NewReader(p, errTest)
	if r.U8() != 0x7f || r.U32() != 0xdeadbeef || r.U64() != 1<<63|5 || r.Uvarint() != 300 || r.Identity() != id {
		t.Fatal("fixed-width fields came back wrong")
	}
	if s := r.String(); s != "héllo" {
		t.Errorf("String = %q", s)
	}
	if b := r.Bytes(); len(b) != 0 {
		t.Errorf("empty Bytes = %v", b)
	}
	if b := r.Bytes(); !bytes.Equal(b, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", b)
	}
	prev = -1
	var got []int
	for n := r.Count(8, "indices"); n > 0 && r.Err() == nil; n-- {
		prev = r.Delta(prev)
		got = append(got, prev)
	}
	if len(got) != len(list) || got[4] != MaxIndex {
		t.Errorf("index list = %v, want %v", got, list)
	}
	if r.Len() != 0 || r.Finish() != nil {
		t.Errorf("after the last field: %d bytes left, Finish = %v", r.Len(), r.Finish())
	}
}

func TestReaderRejects(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
		read    func(r *Reader)
	}{
		{"cut u32", []byte{1, 2, 3}, func(r *Reader) { r.U32() }},
		{"negative take", []byte{1, 2, 3}, func(r *Reader) { r.Take(-1) }},
		// 2^64 as a varint: ten bytes whose last carries a second bit, which
		// a hand-rolled loop shifting it by 63 silently drops.
		{"overflowing varint", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}, func(r *Reader) { r.Uvarint() }},
		{"unfinished varint", []byte{0x80, 0x80}, func(r *Reader) { r.Uvarint() }},
		{"cut string", []byte{5, 'a', 'b'}, func(r *Reader) { _ = r.String() }},
		{"count over the limit", []byte{2}, func(r *Reader) { r.Count(1, "things") }},
		{"zero delta", []byte{0}, func(r *Reader) { r.Delta(5) }},
		{"delta over the cap", binary.AppendUvarint(nil, MaxIndex+1), func(r *Reader) { r.Delta(-1) }},
		{"index over the cap", []byte{2}, func(r *Reader) { r.Delta(MaxIndex - 1) }},
		{"trailing bytes", []byte{1, 2, 3, 4}, func(r *Reader) { r.Take(3) }},
		{"the caller's own check", nil, func(r *Reader) { r.Failf("status %d unknown", 9) }},
	}
	for _, c := range cases {
		r := NewReader(c.payload, errTest)
		c.read(&r)
		if err := r.Finish(); !errors.Is(err, errTest) {
			t.Errorf("%s: Finish = %v, want an error wrapping the reader's sentinel", c.name, err)
		}
	}

	// The error is sticky: after a failure every read is a no-op.
	r := NewReader([]byte{1, 2, 3}, errTest)
	r.U32()
	first := r.Err()
	if r.U8() != 0 || r.Take(1) != nil || r.Bytes() != nil || r.Uvarint() != 0 || r.Delta(7) != 7 || r.Len() != 3 {
		t.Error("reads after a failure must return zero and consume nothing")
	}
	r.Failf("later")
	if r.Finish() != first {
		t.Errorf("Finish = %v, want the first failure %v", r.Finish(), first)
	}
}

// FuzzReader drives a Reader with an arbitrary script of reads over an
// arbitrary payload: it must never panic, never hand out bytes from
// outside the payload, keep its first error, and report through Finish
// whatever it did not read.
func FuzzReader(f *testing.F) {
	f.Add([]byte{}, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(AppendString([]byte{7}, "worker"), []byte{0, 5})
	f.Add(Append(nil, 'W', []byte{1, 2, 3}), []byte{0, 1, 1, 4})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}, []byte{3})
	f.Add(bytes.Repeat([]byte{0xff}, 40), []byte{7, 9, 8, 8, 6, 200})

	f.Fuzz(func(t *testing.T, payload, script []byte) {
		// The payload sits inside a larger buffer: a read past its end would
		// land in the guard bytes without tripping the runtime's own check.
		buf := append(append([]byte(nil), payload...), bytes.Repeat([]byte{0xEE}, 16)...)
		payload = buf[:len(payload)]
		r := NewReader(payload, errTest)
		prev := -1
		for i, op := range script {
			before, failed := r.Len(), r.Err()
			var taken []byte
			switch op % 10 {
			case 0:
				r.U8()
			case 1:
				r.U32()
			case 2:
				r.U64()
			case 3:
				r.Uvarint()
			case 4:
				taken = r.Bytes()
			case 5:
				taken = []byte(r.String())
			case 6:
				taken = r.Take(int(int8(script[(i+1)%len(script)])))
			case 7:
				r.Identity()
			case 8:
				if next := r.Delta(prev); next < prev || next > MaxIndex {
					t.Fatalf("Delta(%d) = %d", prev, next)
				} else {
					prev = next
				}
			case 9:
				if n := r.Count(16, "things"); n > 16 {
					t.Fatalf("Count let %d through", n)
				}
			}
			after := r.Len()
			if after < 0 || after > before {
				t.Fatalf("op %d: %d unread bytes after %d", op, after, before)
			}
			if len(taken) > before-after {
				t.Fatalf("op %d: handed out %d bytes, consumed %d", op, len(taken), before-after)
			}
			if len(taken) > 0 && !bytes.Equal(taken, payload[len(payload)-after-len(taken):len(payload)-after]) {
				t.Fatalf("op %d: handed out bytes that are not the ones it consumed", op)
			}
			if failed != nil && (r.Err() != failed || after != before || len(taken) != 0) {
				t.Fatalf("op %d after a failure: err %v, consumed %d", op, r.Err(), before-after)
			}
		}
		clean, left := r.Err() == nil, r.Len()
		if err := r.Finish(); (err == nil) != (clean && left == 0) {
			t.Fatalf("Finish = %v with %d bytes unread and prior error %v", err, left, !clean)
		} else if err != nil && !errors.Is(err, errTest) {
			t.Fatalf("Finish error %v does not wrap the reader's sentinel", err)
		}
	})
}
