package archive

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"faultspace/internal/campaign"
	"faultspace/internal/pruning"
	"faultspace/internal/trace"
)

// headerKeys are the keys of a v1 archive, in the order Encode writes
// them; no build ever wrote another.
var headerKeys = [...]string{"version", "name", "identity", "space", "cycles", "bits",
	"ramBits", "knownNoEffect", "serial", "detects", "corrects", "classes"}

// headerKey returns the index of a header key in headerKeys, -1 for any
// other.
func headerKey(name []byte) int {
	for k, key := range headerKeys {
		if string(name) == key {
			return k
		}
	}
	return -1
}

// classKey returns the index of a class key — bit, def cycle, use cycle,
// outcome — and -1 for any other.
func classKey(name []byte) int {
	switch string(name) {
	case "b":
		return 0
	case "d":
		return 1
	case "u":
		return 2
	case "o":
		return 3
	}
	return -1
}

// Decode reads a scan archive and reconstructs a campaign result
// sufficient for analysis and reporting (Analyze, Compare, outcome
// dumps). The reconstructed result has no program attached and cannot be
// re-executed. The fault-space partition invariant is re-verified, so
// inconsistent or tampered archives are rejected.
//
// Decode accepts every archive Encode writes, and the same JSON object
// rewritten with whitespace anywhere and keys in any order; a missing key
// reads as zero, so archives from builds without "identity" load. That is
// narrower than what encoding/json accepts: a repeated key, a key outside
// the v1 schema or in different case, a number that is not a plain
// unsigned integer, a class that is not an object, and anything but
// whitespace after the closing brace are errors naming the byte offset.
// Whatever Decode accepts decodes to the result encoding/json's reflective
// decoder gives for the same bytes; the tests hold it to that decoder.
//
// A *bytes.Reader's unread bytes are parsed where they lie, inside the
// one Write its WriteTo makes, and the result keeps no reference to them;
// any other reader is read into a buffer first. Either way the reader is
// left at its end. A class list long enough to be worth it is parsed on
// every P at once (see classes); the result and any error are the
// sequential parse's.
func Decode(r io.Reader) (*campaign.Result, error) {
	if br, ok := r.(*bytes.Reader); ok && br.Len() > 0 {
		var d inPlace
		br.WriteTo(&d) // one Write, which never fails
		return d.res, d.err
	}
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("archive: read scan archive: %w", err)
	}
	return decode(data)
}

// inPlace is the sink a *bytes.Reader writes its unread bytes to: it
// decodes them during the Write, while they are the reader's own.
type inPlace struct {
	res *campaign.Result
	err error
}

func (d *inPlace) Write(p []byte) (int, error) {
	d.res, d.err = decode(p)
	return len(p), nil
}

// decode reconstructs the result an archive's bytes hold; it keeps no
// reference to data.
func decode(data []byte) (*campaign.Result, error) {
	s := scanner{data: data}
	var a scanArchive // the header; its Classes stay nil
	classes, outcomes := []pruning.Class{}, []campaign.Outcome{}
	if err := s.object(&a, func() (err error) {
		classes, outcomes, err = s.classes()
		return err
	}); err != nil {
		return nil, err
	}

	if a.Version != Version {
		return nil, fmt.Errorf("archive: scan archive version %d, want %d", a.Version, Version)
	}
	kind, err := pruning.ParseKind(a.Space)
	if err != nil {
		return nil, fmt.Errorf("archive: %w in archive", err)
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

// ClassCount returns how many classes the archive in data holds — the
// count Decode sizes its slices by — reading its header but none of its
// classes. For an archive Decode accepts it is the length of the decoded
// fault space's class list.
func ClassCount(data []byte) (int, error) {
	s := scanner{data: data}
	n := 0
	err := s.object(new(scanArchive), func() error {
		c, end, err := s.count()
		n, s.pos = c, end+1 // past the ']' that closes a valid list
		return err
	})
	return n, err
}

// object reads the archive object into a's header fields and hands the
// class list to list, then checks that only whitespace follows.
func (s *scanner) object(a *scanArchive, list func() error) error {
	if err := s.expect('{'); err != nil {
		return err
	}
	for seen := uint16(0); ; {
		k, err := s.key(headerKey, &seen)
		if err != nil {
			return err
		}
		if k < 0 {
			break
		}
		switch headerKeys[k] {
		case "version":
			var v uint64
			v, err = s.integer(math.MaxInt)
			a.Version = int(v)
		case "name":
			err = s.text(&a.Name)
		case "identity":
			err = s.text(&a.Identity)
		case "space":
			err = s.text(&a.Space)
		case "cycles":
			a.Cycles, err = s.integer(math.MaxUint64)
		case "bits":
			a.Bits, err = s.integer(math.MaxUint64)
		case "ramBits":
			a.RAMBits, err = s.integer(math.MaxUint64)
		case "knownNoEffect":
			a.KnownNoEffect, err = s.integer(math.MaxUint64)
		case "serial":
			err = s.text(&a.Serial)
		case "detects":
			a.Detects, err = s.integer(math.MaxUint64)
		case "corrects":
			a.Corrects, err = s.integer(math.MaxUint64)
		case "classes":
			err = list()
		}
		if err != nil {
			return err
		}
	}
	if s.skipSpace(); s.pos != len(s.data) {
		return s.errorf(s.pos, "trailing data after the archive")
	}
	return nil
}

// readAll is io.ReadAll, but for a reader that knows its length — an
// in-memory report — it reads in one allocation.
func readAll(r io.Reader) ([]byte, error) {
	size := 512
	if l, ok := r.(interface{ Len() int }); ok {
		size = l.Len() + 1 // the byte more lets the read that sees EOF go without growing
	}
	b := make([]byte, 0, size)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// scanner walks an archive held in one buffer.
type scanner struct {
	data []byte
	pos  int
}

// errorf reports malformed input at byte offset at.
func (s *scanner) errorf(at int, format string, args ...any) error {
	return fmt.Errorf("archive: scan archive byte %d: %s", at, fmt.Sprintf(format, args...))
}

func (s *scanner) skipSpace() {
	for s.pos < len(s.data) {
		// Every JSON whitespace byte is at most ' ', and between tokens of
		// an archive as Encode writes it there is none.
		if c := s.data[s.pos]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return
		}
		s.pos++
	}
}

// next consumes c if it is the next byte.
func (s *scanner) next(c byte) bool {
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// expect consumes c after any whitespace.
func (s *scanner) expect(c byte) error {
	if s.skipSpace(); !s.next(c) {
		return s.errorf(s.pos, "want %q", c)
	}
	return nil
}

// key reads the next member of an object, up to and including the colon,
// and returns the key's index — or -1 once it has consumed the object's
// closing brace. index maps a key to its index, -1 for a key outside the
// schema; seen holds the keys read so far, one bit each, and starts at
// zero after the opening brace.
func (s *scanner) key(index func(name []byte) int, seen *uint16) (int, error) {
	s.skipSpace()
	if s.next('}') {
		return -1, nil
	}
	if *seen != 0 {
		if !s.next(',') {
			return 0, s.errorf(s.pos, "want ',' or '}'")
		}
		s.skipSpace()
	}
	at := s.pos
	tok, err := s.str()
	if err != nil {
		return 0, err
	}
	k := index(tok[1 : len(tok)-1])
	switch {
	case k < 0:
		return 0, s.errorf(at, "key %s is not in the v1 schema", tok)
	case *seen&(1<<k) != 0:
		return 0, s.errorf(at, "repeated key %s", tok)
	}
	*seen |= 1 << k
	return k, s.expect(':')
}

// str returns the JSON string at the scanner, quotes included and escapes
// left as they are.
func (s *scanner) str() ([]byte, error) {
	start := s.pos
	if !s.next('"') {
		return nil, s.errorf(start, "want a string")
	}
	for i := s.pos; i < len(s.data); i++ {
		switch s.data[i] {
		case '\\':
			i++
		case '"':
			s.pos = i + 1
			return s.data[start:s.pos], nil
		}
	}
	return nil, s.errorf(start, "unterminated string")
}

// text decodes the string or null after any whitespace into v through
// encoding/json, so that escapes, invalid UTF-8 and base64 read exactly as
// they do for the reflective decoder; null leaves a string empty and a
// byte slice nil.
func (s *scanner) text(v any) error {
	s.skipSpace()
	at := s.pos
	var tok []byte
	if bytes.HasPrefix(s.data[s.pos:], []byte("null")) {
		s.pos += 4
		tok = s.data[at:s.pos]
	} else {
		var err error
		if tok, err = s.str(); err != nil {
			return err
		}
	}
	if err := json.Unmarshal(tok, v); err != nil {
		return s.errorf(at, "%v", err)
	}
	return nil
}

// integer parses the JSON integer after any whitespace: digits only, no
// leading zero, at most limit.
func (s *scanner) integer(limit uint64) (uint64, error) {
	s.skipSpace()
	data, start, i := s.data, s.pos, s.pos
	var v uint64
	for ; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
		d := uint64(data[i] - '0')
		// 19 digits fit in a uint64 whatever they are; a 20th may not.
		if i-start >= 19 && v > (math.MaxUint64-d)/10 {
			return 0, s.errorf(start, "integer above %d", limit)
		}
		v = v*10 + d
	}
	s.pos = i
	switch {
	case i == start:
		return 0, s.errorf(start, "want an unsigned integer")
	case data[start] == '0' && i-start > 1:
		return 0, s.errorf(start, "integer with a leading zero")
	case v > limit:
		return 0, s.errorf(start, "integer above %d", limit)
	}
	return v, nil
}

// count opens the class list after any whitespace and counts its classes
// without reading them, returning the offset of the first ']' after it. A
// class holds only integers, so in a valid list every '{' before that ']'
// opens a class, and the ']' closes the list.
func (s *scanner) count() (n, end int, err error) {
	if err := s.expect('['); err != nil {
		return 0, 0, err
	}
	end = bytes.IndexByte(s.data[s.pos:], ']')
	if end < 0 {
		return 0, 0, s.errorf(s.pos, "unterminated class list")
	}
	end += s.pos
	return bytes.Count(s.data[s.pos:end], []byte{'{'}), end, nil
}

// minPartClasses is the fewest classes a part of a split class list
// holds: below it, starting a goroutine costs more than the part saves.
const minPartClasses = 4096

// partsFor returns how many parts a list of n classes is parsed in: one
// per P, each of at least minPartClasses classes. Tests replace it to
// force splits.
var partsFor = func(n int) int {
	return min(runtime.GOMAXPROCS(0), n/minPartClasses)
}

// classes parses the class list after any whitespace; its count sizes
// both slices exactly, once. A list of more than one part's worth of
// classes is parsed in parts, concurrently (split); whenever that fails
// the whole list is parsed again in one part, so that what is accepted
// and every error text are the sequential parse's.
func (s *scanner) classes() ([]pruning.Class, []campaign.Outcome, error) {
	n, end, err := s.count()
	if err != nil {
		return nil, nil, err
	}
	classes, outcomes := make([]pruning.Class, n), make([]campaign.Outcome, n)
	if p := partsFor(n); p > 1 && s.split(p, end, classes, outcomes) {
		s.pos = end + 1
		return classes, outcomes, nil
	}
	if s.skipSpace(); s.next(']') {
		return classes, outcomes, nil
	}
	for i := 0; ; i++ {
		if i == n {
			return nil, nil, s.errorf(s.pos, "more than the %d classes counted", n)
		}
		if err := s.readClass(i, &classes[i], &outcomes[i]); err != nil {
			return nil, nil, err
		}
		if s.skipSpace(); s.next(']') {
			if i+1 != n {
				return nil, nil, s.errorf(s.pos, "%d classes, %d counted", i+1, n)
			}
			return classes, outcomes, nil
		}
		if !s.next(',') {
			return nil, nil, s.errorf(s.pos, "want ',' or ']'")
		}
	}
}

// split parses the class list from the scanner's position to its ']' at
// end in up to p parts, all at once, the caller's goroutine taking the
// first. Part k after the first starts at the '{' of the first ",{" at or
// after the k-th of p equal byte shares of the list; the part before it
// must end on that ',', and the last part on the ']'. A part's first
// class is the number of '{' before its start, and it fills its own
// subslice of classes and outcomes exactly. When every part does, the
// sequential parse would have read the same classes from the same
// offsets, so the result is its result. split reports false when a part
// errs or misses its end, with the slices partly written and the scanner
// where it was.
func (s *scanner) split(p, end int, classes []pruning.Class, outcomes []campaign.Outcome) bool {
	// bounds[k] is where part k starts, bounds[k+1]-1 where it must stop;
	// first[k] is its first class.
	bounds, first := make([]int, 1, p+1), make([]int, 1, p+1)
	bounds[0] = s.pos
	size := end - s.pos
	for k := 1; k < p; k++ {
		from := max(s.pos+k*size/p, bounds[len(bounds)-1])
		cut := bytes.Index(s.data[from:end], []byte(",{"))
		if cut < 0 {
			break
		}
		at := from + cut + 1
		first = append(first, first[len(first)-1]+bytes.Count(s.data[bounds[len(bounds)-1]:at], []byte{'{'}))
		bounds = append(bounds, at)
	}
	if len(bounds) == 1 { // no ",{": a spaced layout
		return false
	}
	bounds, first = append(bounds, end+1), append(first, len(classes))

	data := s.data // not s, which would then escape
	var wg sync.WaitGroup
	var failed atomic.Bool
	run := func(k int) {
		ps := scanner{data: data, pos: bounds[k]}
		lo, hi := first[k], first[k+1]
		if !ps.part(bounds[k+1]-1, classes[lo:hi], outcomes[lo:hi]) {
			failed.Store(true)
		}
	}
	wg.Add(len(bounds) - 2)
	for k := 1; k < len(bounds)-1; k++ {
		go func() {
			defer wg.Done()
			run(k)
		}()
	}
	run(0)
	wg.Wait()
	return !failed.Load()
}

// part parses one part of a split class list up to stop: it must read
// exactly len(classes) classes and end on stop, the ',' before the next
// part or the list's ']'. Its errors are dropped, so the class numbers in
// them do not matter.
func (s *scanner) part(stop int, classes []pruning.Class, outcomes []campaign.Outcome) bool {
	for i := range classes {
		if s.readClass(i, &classes[i], &outcomes[i]) != nil {
			return false
		}
		if s.skipSpace(); s.pos == stop {
			return i+1 == len(classes)
		}
		if !s.next(',') {
			return false
		}
	}
	return false
}

// readClass reads the class at the scanner, class number i of its list,
// through encoded or else class, and checks its outcome.
func (s *scanner) readClass(i int, c *pruning.Class, o *campaign.Outcome) error {
	var v [4]uint64 // b, d, u, o
	if !s.encoded(&v) {
		if err := s.class(&v); err != nil {
			return err
		}
	}
	if out := campaign.Outcome(v[3]); !out.Known() {
		return fmt.Errorf("archive: archive class %d has unknown outcome %d", i, out)
	}
	*c = pruning.Class{Bit: v[0], DefCycle: v[1], UseCycle: v[2]}
	*o = campaign.Outcome(v[3])
	return nil
}

// encoded reads the class at the scanner if it is in exactly the layout
// Encode writes, {"b":N,"d":N,"u":N,"o":N}: no whitespace, the keys in
// that order, every number without a leading zero and of at most 19
// digits, the outcome at most 255. On any other byte it reports false and
// leaves the scanner where it was, for class to read the class from its
// start with the same result or error.
func (s *scanner) encoded(v *[4]uint64) bool {
	data, p := s.data, s.pos
	var w [4]uint64
	for k := range w {
		// What comes before the number: `{"b":`, `,"d":`, `,"u":`, `,"o":`.
		if len(data)-p < 5 || data[p] != "{,,,"[k] || data[p+1] != '"' ||
			data[p+2] != "bduo"[k] || data[p+3] != '"' || data[p+4] != ':' {
			return false
		}
		p += 5
		start := p
		var x uint64
		for ; p < len(data) && p-start < 19 && '0' <= data[p] && data[p] <= '9'; p++ {
			x = x*10 + uint64(data[p]-'0')
		}
		if p == start || data[start] == '0' && p-start > 1 {
			return false
		}
		w[k] = x
	}
	if w[3] > math.MaxUint8 || p == len(data) || data[p] != '}' {
		return false
	}
	*v, s.pos = w, p+1
	return true
}

// class reads a class after any whitespace in any layout Decode accepts.
func (s *scanner) class(v *[4]uint64) error {
	if err := s.expect('{'); err != nil {
		return err
	}
	for seen := uint16(0); ; {
		k, err := s.key(classKey, &seen)
		if err != nil || k < 0 {
			return err
		}
		limit := uint64(math.MaxUint64)
		if k == 3 {
			limit = math.MaxUint8
		}
		if v[k], err = s.integer(limit); err != nil {
			return err
		}
	}
}
