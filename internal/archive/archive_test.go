package archive

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"faultspace/internal/campaign"
	"faultspace/internal/machine"
	"faultspace/internal/progs"
	"faultspace/internal/pruning"
	"faultspace/internal/trace"
)

// referenceEncode is Encode as it was while the whole archive, class list
// included, went through encoding/json's reflective struct encoder: the
// bytes the hand-written class list is held to.
func referenceEncode(w io.Writer, r *campaign.Result) error {
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
	return json.NewEncoder(w).Encode(&a)
}

// referenceDecode is Decode as it was while the whole archive went
// through encoding/json's reflective struct decoder: the result the
// hand-written scanner is held to on every input it accepts.
func referenceDecode(r io.Reader) (*campaign.Result, error) {
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

// splitAll is a partsFor that splits every class list into parts of one
// or two classes, whatever the count and the number of Ps.
func splitAll(n int) int { return n }

// withParts runs f with partsFor replaced by parts.
func withParts(parts func(int) int, f func()) {
	saved := partsFor
	partsFor = parts
	defer func() { partsFor = saved }()
	f()
}

// decodeEveryWay decodes data in place from a *bytes.Reader, through a reader
// of another type, and in place with every class list split (splitAll),
// fails t unless all three give the same result or the same error text,
// and returns the first.
func decodeEveryWay(t testing.TB, data []byte) (*campaign.Result, error) {
	t.Helper()
	got, err := Decode(bytes.NewReader(data))
	read, rerr := Decode(strings.NewReader(string(data)))
	var split *campaign.Result
	var serr error
	withParts(splitAll, func() { split, serr = Decode(bytes.NewReader(data)) })
	for _, other := range []struct {
		way string
		res *campaign.Result
		err error
	}{{"read into a buffer", read, rerr}, {"split", split, serr}} {
		if fmt.Sprint(other.err) != fmt.Sprint(err) || !reflect.DeepEqual(other.res, got) {
			t.Fatalf("Decode %s differs from Decode in place on %q:\n got %+v (err %v)\nwant %+v (err %v)",
				other.way, data, other.res, other.err, got, err)
		}
	}
	return got, err
}

// checkResult holds Encode to the reference encoder's bytes, Decode —
// in place, read, and split — to giving back what was encoded and to the
// reference decoder's result, and ClassCount to Decode's class count; it
// returns the archive.
func checkResult(t *testing.T, label string, r *campaign.Result) []byte {
	t.Helper()
	var got, want bytes.Buffer
	if err := Encode(&got, r); err != nil {
		t.Fatalf("%s: Encode: %v", label, err)
	}
	if err := referenceEncode(&want, r); err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: Encode differs from the reflective encoder:\n got %s\nwant %s", label, got.Bytes(), want.Bytes())
	}
	back, err := decodeEveryWay(t, got.Bytes())
	if err != nil {
		t.Fatalf("%s: Decode: %v", label, err)
	}
	if ref, err := referenceDecode(bytes.NewReader(got.Bytes())); err != nil || !reflect.DeepEqual(back, ref) {
		t.Fatalf("%s: Decode differs from the reflective decoder (err %v):\n got %+v\nwant %+v", label, err, back, ref)
	}
	if n, err := ClassCount(got.Bytes()); err != nil || n != len(back.Space.Classes) {
		t.Fatalf("%s: ClassCount = %d (err %v), Decode has %d classes", label, n, err, len(back.Space.Classes))
	}
	g, bg, fs, bfs := r.Golden, back.Golden, r.Space, back.Space
	switch {
	case back.Target.Name != r.Target.Name, back.Identity != r.Identity, back.Pending != 0,
		bg.Name != r.Target.Name, bg.Cycles != fs.Cycles, bg.RAMBits != g.RAMBits,
		!bytes.Equal(bg.Serial, g.Serial), bg.Detects != g.Detects, bg.Corrects != g.Corrects,
		bfs.Kind != fs.Kind, bfs.Cycles != fs.Cycles, bfs.Bits != fs.Bits, bfs.KnownNoEffect != fs.KnownNoEffect,
		len(bfs.Classes) != len(fs.Classes), len(back.Outcomes) != len(r.Outcomes):
		t.Fatalf("%s: Decode(Encode(r)) differs from r:\n got %+v %+v %+v\nwant %+v %+v %+v", label, back, bg, bfs, r, g, fs)
	}
	for i, c := range fs.Classes {
		if bfs.Classes[i] != c || back.Outcomes[i] != r.Outcomes[i] {
			t.Fatalf("%s: class %d: decoded %+v %v, encoded %+v %v", label, i, bfs.Classes[i], back.Outcomes[i], c, r.Outcomes[i])
		}
	}
	return got.Bytes()
}

// scanProgram runs the named bundled program, at its smallest size, over
// one fault space.
func scanProgram(t testing.TB, name string, kind pruning.SpaceKind) *campaign.Result {
	t.Helper()
	spec, err := progs.Resolve(name, progs.Sizes{
		BinSemRounds: 1, SyncRounds: 1, SyncBufBytes: 16,
		ClockTicks: 2, ClockPeriod: 32, MboxMessages: 2,
		PreemptWork: 8, PreemptPeriod: 24, SortElements: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	return scanSpec(t, spec, kind)
}

// scanSpec runs a bundled program's baseline over one fault space.
func scanSpec(t testing.TB, spec progs.Spec, kind pruning.SpaceKind) *campaign.Result {
	t.Helper()
	prog, err := spec.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	target := campaign.Target{
		Name:  prog.Name,
		Code:  prog.Code,
		Image: prog.Image,
		Mach: machine.Config{
			RAMSize:     prog.RAMSize,
			TimerPeriod: prog.TimerPeriod,
			TimerVector: prog.TimerVector,
		},
	}
	golden, fs, err := target.PrepareSpace(kind, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.FullScan(target, golden, fs, campaign.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

var allKinds = []pruning.SpaceKind{
	pruning.SpaceMemory, pruning.SpaceRegisters, pruning.SpaceSkip,
	pruning.SpacePC, pruning.SpaceBurst2, pruning.SpaceBurst4,
}

// TestEncodeMatchesReflectiveEncoder: every bundled program over every
// fault space archives to the bytes encoding/json produced, and decodes
// back to itself. Hi's memory archive is pinned besides (SHA-256 recorded
// at commit 8f5a95a, where the reflective encoder was the only one).
func TestEncodeMatchesReflectiveEncoder(t *testing.T) {
	for _, name := range progs.Names() {
		for _, kind := range allKinds {
			data := checkResult(t, name+"/"+kind.String(), scanProgram(t, name, kind))
			if name != "hi" || kind != pruning.SpaceMemory {
				continue
			}
			const want = "e6b634dbe8dcb5f87b222eb42fcc41bf47b6e0196ef1be50c3ea8636212ca2eb"
			if got := fmt.Sprintf("%x", sha256.Sum256(data)); len(data) != 658 || got != want {
				t.Errorf("hi archive: %d bytes, SHA-256 %s, want 658 bytes, %s", len(data), got, want)
			}
		}
	}
}

// randomResult draws a consistent result: per bit a chain of disjoint
// def/use intervals, the rest known No Effect. Class counts 0 and 1, the
// zero identity, nil and empty serial output and serial output that reads
// like a class, names that JSON escapes or that hold '{' and ']', and
// attack-flagged outcomes all occur.
func randomResult(rng *rand.Rand) *campaign.Result {
	fs := &pruning.FaultSpace{
		Kind:   allKinds[rng.Intn(len(allKinds))],
		Cycles: 1 + uint64(rng.Int63n(1<<uint(1+rng.Intn(40)))),
		Bits:   1 + uint64(rng.Intn(64)),
	}
	var budget int
	switch rng.Intn(4) {
	case 0:
	case 1:
		budget = 1
	default:
		budget = 2 + rng.Intn(300)
	}
	var weight uint64
	for bit := uint64(0); bit < fs.Bits && len(fs.Classes) < budget; bit++ {
		for t := uint64(0); len(fs.Classes) < budget; {
			def := t + uint64(rng.Int63n(int64(fs.Cycles/8+1)))
			use := def + 1 + uint64(rng.Int63n(int64(fs.Cycles/8+1)))
			if use > fs.Cycles || rng.Intn(6) == 0 {
				break
			}
			fs.Classes = append(fs.Classes, pruning.Class{Bit: bit, DefCycle: def, UseCycle: use})
			weight += use - def
			t = use
		}
	}
	sort.Slice(fs.Classes, func(i, j int) bool {
		a, b := fs.Classes[i], fs.Classes[j]
		return a.UseCycle < b.UseCycle || (a.UseCycle == b.UseCycle && a.Bit < b.Bit)
	})
	fs.KnownNoEffect = fs.Size() - weight

	outcomes := make([]campaign.Outcome, len(fs.Classes))
	for i := range outcomes {
		outcomes[i] = campaign.Outcome(rng.Intn(campaign.NumOutcomes))
		if rng.Intn(3) == 0 {
			outcomes[i] |= campaign.AttackFlag
		}
	}
	names := []string{"hi", "", `a "quoted" <name> & more`, "sørt1\u2028\t\\", "bin_sem2+sumdmr", `{"classes":[{}]`}
	name := names[rng.Intn(len(names))]
	golden := &trace.Golden{
		Name:     name,
		Cycles:   fs.Cycles,
		RAMBits:  uint64(rng.Intn(1 << 19)),
		Detects:  uint64(rng.Intn(3)),
		Corrects: rng.Uint64() >> uint(rng.Intn(64)),
	}
	switch rng.Intn(4) {
	case 0: // nil: "serial":null
	case 1:
		golden.Serial = []byte{}
	case 2:
		golden.Serial = []byte(`{"b":0}]`)
	default:
		golden.Serial = make([]byte, 1+rng.Intn(40))
		rng.Read(golden.Serial)
	}
	res := &campaign.Result{Target: campaign.Target{Name: name}, Golden: golden, Space: fs, Outcomes: outcomes}
	if rng.Intn(3) != 0 {
		rng.Read(res.Identity[:])
	}
	return res
}

func TestEncodeRandomResults(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var empty, single, noIdentity int
	for n := 0; n < 400; n++ {
		r := randomResult(rng)
		data := checkResult(t, fmt.Sprintf("random result %d", n), r)
		if hasKey := bytes.Contains(data, []byte(`"identity"`)); hasKey != (r.Identity != [32]byte{}) {
			t.Fatalf("result %d: identity %x, identity key present: %v", n, r.Identity, hasKey)
		}
		switch len(r.Outcomes) {
		case 0:
			empty++
		case 1:
			single++
		}
		if r.Identity == ([32]byte{}) {
			noIdentity++
		}
	}
	if empty == 0 || single == 0 || noIdentity == 0 {
		t.Errorf("the draw missed a case: %d empty, %d one-class, %d identity-less results", empty, single, noIdentity)
	}
}

func TestEncodeRefuses(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := randomResult(rng)
	for len(r.Outcomes) < 2 {
		r = randomResult(rng)
	}
	var buf bytes.Buffer
	r.Pending = 1
	if err := Encode(&buf, r); !errors.Is(err, campaign.ErrPartialResult) || buf.Len() != 0 {
		t.Errorf("partial result: err = %v, %d bytes written", err, buf.Len())
	}
	r.Pending = 0
	r.Outcomes = r.Outcomes[:1]
	if err := Encode(&buf, r); err == nil || errors.Is(err, campaign.ErrPartialResult) || buf.Len() != 0 {
		t.Errorf("outcome/class length mismatch: err = %v, %d bytes written", err, buf.Len())
	}
}

// TestDecodeAllocs: a decode allocates the same number of times whatever
// the class count — the class and outcome slices, the header's strings,
// the result and the sink a *bytes.Reader writes to; the input is read in
// place — so a regression to an allocation per class fails here.
// mbox1(16) has 14 times the classes of sort1(6). A split decode adds its
// own constant: the part bounds, the join and one goroutine per part after
// the first, here two parts.
func TestDecodeAllocs(t *testing.T) {
	const sequential, split = 16, 22
	for _, spec := range []progs.Spec{progs.Sort1(6), progs.Mbox1(16)} {
		var archive bytes.Buffer
		res := scanSpec(t, spec, pruning.SpaceMemory)
		if err := Encode(&archive, res); err != nil {
			t.Fatal(err)
		}
		r := bytes.NewReader(nil)
		decode := func() {
			r.Reset(archive.Bytes())
			if _, err := Decode(r); err != nil {
				t.Fatal(err)
			}
		}
		// AllocsPerRun runs at one P, where nothing is split.
		if allocs := testing.AllocsPerRun(20, decode); allocs != sequential {
			t.Errorf("%s: %.0f allocations to decode %d classes, want %d", spec.Name, allocs, len(res.Outcomes), sequential)
		}
		withParts(func(int) int { return 2 }, func() {
			if allocs := testing.AllocsPerRun(20, decode); allocs != split {
				t.Errorf("%s: %.0f allocations to decode %d classes in two parts, want %d", spec.Name, allocs, len(res.Outcomes), split)
			}
		})
	}
}

// TestDecodeKeepsNoReference: a result decoded in place from a
// *bytes.Reader shares no storage with the reader's bytes, which its
// owner may reuse the moment Decode returns.
func TestDecodeKeepsNoReference(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for n := 0; n < 50; n++ {
		r := randomResult(rng)
		r.Golden.Serial = []byte("serial output")
		var buf bytes.Buffer
		if err := Encode(&buf, r); err != nil {
			t.Fatal(err)
		}
		want, err := Decode(bytes.NewReader(slices.Clone(buf.Bytes())))
		if err != nil {
			t.Fatal(err)
		}
		for _, parts := range []func(int) int{partsFor, splitAll} {
			src := slices.Clone(buf.Bytes())
			var got *campaign.Result
			withParts(parts, func() { got, err = Decode(bytes.NewReader(src)) })
			if err != nil {
				t.Fatal(err)
			}
			for i := range src {
				src[i] = '9'
			}
			if !reflect.DeepEqual(got, want) || string(got.Golden.Serial) != "serial output" {
				t.Fatalf("result %d: overwriting the decoded bytes changed the result:\n got %+v\nwant %+v", n, got, want)
			}
		}
	}
}

// splitList runs split on the class list of src in p parts and reports
// whether it accepted the list, with the classes it read.
func splitList(t *testing.T, src []byte, p int) (bool, []pruning.Class, []campaign.Outcome) {
	t.Helper()
	s := scanner{data: src, pos: bytes.Index(src, []byte(`"classes":`)) + len(`"classes":`)}
	n, end, err := s.count()
	if err != nil {
		t.Fatal(err)
	}
	classes, outcomes := make([]pruning.Class, n), make([]campaign.Outcome, n)
	return s.split(p, end, classes, outcomes), classes, outcomes
}

// TestDecodeSplit holds the split class list to the sequential parse at
// its edges: a list split anywhere reads what the sequential parse reads;
// a part that meets a malformed class, or does not end on its cut, makes
// the whole list parse again sequentially, so the error text — byte offset
// or absolute class index — is the sequential one; a list with no ",{" is
// not split; and at one P nothing is.
func TestDecodeSplit(t *testing.T) {
	hi := hiArchive(t)
	want, err := referenceDecode(bytes.NewReader(hi))
	if err != nil {
		t.Fatal(err)
	}
	for p := 2; p <= len(want.Outcomes)+1; p++ {
		ok, classes, outcomes := splitList(t, hi, p)
		if !ok || !slices.Equal(classes, want.Space.Classes) || !slices.Equal(outcomes, want.Outcomes) {
			t.Fatalf("hi in %d parts: split %v, classes %v %v, want %v %v", p, ok, classes, outcomes, want.Space.Classes, want.Outcomes)
		}
	}

	const three = `{"version":1,"space":"memory","cycles":3,"bits":3,"knownNoEffect":0,"classes":[`
	const (
		c0 = `{"b":0,"d":0,"u":3,"o":1}`
		c1 = `{"b":1,"d":0,"u":3,"o":2}`
		c2 = `{"b":2,"d":0,"u":3,"o":0}`
	)
	for name, tc := range map[string]struct {
		src   string
		want  string // in the error; "" for a list that decodes
		split bool   // whether a split in three parts reads the list
	}{
		"cut right after a malformed class": {three + c0 + `,{"b":01,"d":0,"u":3,"o":2},` + c2 + `]}`,
			fmt.Sprintf("byte %d:", len(three+c0)+6), false},
		"a class running into its cut": {three + c0 + `,{"b":1,"d":0,"u":3,"o":2,` + c2 + `]}`,
			fmt.Sprintf("byte %d:", len(three+c0)+26), false},
		"error in the last part": {three + c0 + "," + c1 + `,{"b":2,"d":0,"u":3,"o":256}]}`,
			fmt.Sprintf("byte %d:", len(three+c0+c1)+25), false},
		"unknown outcome in part 2": {three + c0 + "," + c1 + `,{"b":2,"d":0,"u":3,"o":100}]}`,
			"archive class 2 has unknown outcome 100", false},
		"spaced list with no ,{":       {three + c0 + ", " + c1 + " , " + c2 + `]}`, "", false},
		"empty class in the last part": {three + c0 + "," + c1 + `,{}]}`, "inconsistent", true},
	} {
		_, err := decodeEveryWay(t, []byte(tc.src))
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: err = %v, want %q", name, err, tc.want)
		}
		if ok, _, _ := splitList(t, []byte(tc.src), 3); ok != tc.split {
			t.Errorf("%s: split in three parts read the list: %v, want %v", name, ok, tc.split)
		}
	}

	// The production split: mbox1(16)'s 16,544 classes are four parts'
	// worth, so they are split in as many parts as there are Ps — none at one.
	res := scanSpec(t, progs.Mbox1(16), pruning.SpaceMemory)
	var archive bytes.Buffer
	if err := Encode(&archive, res); err != nil {
		t.Fatal(err)
	}
	ref, err := referenceDecode(bytes.NewReader(archive.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		if got, want := partsFor(len(res.Outcomes)), min(procs, 4); got != want {
			t.Errorf("at %d Ps: %d parts, want %d", procs, got, want)
		}
		got, err := Decode(bytes.NewReader(archive.Bytes()))
		if err != nil || !reflect.DeepEqual(got, ref) {
			t.Fatalf("at %d Ps: Decode differs from the reflective decoder (err %v)", procs, err)
		}
	}
}

// hiArchive is hi's memory-space archive, as Encode writes it.
func hiArchive(t testing.TB) []byte {
	var buf bytes.Buffer
	if err := Encode(&buf, scanProgram(t, "hi", pruning.SpaceMemory)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reordered rewrites an archive with its header keys sorted and
// indented — valid JSON of the same archive in another layout.
func reordered(t testing.TB, archive []byte) []byte {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(archive, &m); err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(m, " ", "\t")
	if err != nil {
		t.Fatal(err)
	}
	return append(append([]byte("\r\n "), out...), " \n"...)
}

// TestDecodeRejectsEveryPrefix cuts hi's pinned archive at every byte, as
// a report torn in transfer or storage would be: no prefix decodes but the
// one that drops only the newline Encode ends with, which is whitespace.
// The same holds with its second class spaced out, reordered, or given a
// number Encode never writes: a cut inside or after the class that leaves
// Encode's layout.
func TestDecodeRejectsEveryPrefix(t *testing.T) {
	hi := hiArchive(t)
	if len(hi) != 658 || hi[len(hi)-1] != '\n' {
		t.Fatalf("hi archive: %d bytes ending in %q, want the pinned 658 ending in a newline", len(hi), hi[len(hi)-1:])
	}
	// The second class, which hi's archive has as {"b":1,"d":1,"u":4,"o":2}.
	second := bytes.Index(hi, []byte(`},{`)) + 2
	end := second + bytes.IndexByte(hi[second:], '}') + 1
	class := string(hi[second:end])
	if class != `{"b":1,"d":1,"u":4,"o":2}` {
		t.Fatalf("hi's second class is %s", class)
	}
	for name, tc := range map[string]struct {
		class string
		valid bool
	}{
		"canonical":    {class, true},
		"spaced":       {`{ "b" :1, "d":1,"u":4,"o":2 }`, true},
		"reordered":    {`{"o":2,"u":4,"d":1,"b":1}`, true},
		"leading zero": {`{"b":1,"d":1,"u":04,"o":2}`, false},
		"20 digits":    {`{"b":1,"d":1,"u":18446744073709551616,"o":2}`, false},
	} {
		src := slices.Concat(hi[:second], []byte(tc.class), hi[end:])
		for cut := 0; cut < len(src)-1; cut++ {
			if _, err := decodeEveryWay(t, src[:cut]); err == nil {
				t.Fatalf("%s: cut at %d of %d bytes: decoded", name, cut, len(src))
			}
		}
		if _, err := decodeEveryWay(t, src[:len(src)-1]); (err == nil) != tc.valid {
			t.Errorf("%s: without its final newline: err = %v, want valid %v", name, err, tc.valid)
		}
	}
}

// TestDecodeAcceptedInput pins the edge of the accepted input: layout is
// free, a missing key reads as zero, and anything encoding/json would
// accept only by ignoring or overwriting something is an error naming
// its byte offset.
func TestDecodeAcceptedInput(t *testing.T) {
	hi := hiArchive(t)
	// The header of three classes that cover the whole space.
	const three = `{"version":1,"space":"memory","cycles":3,"bits":3,"knownNoEffect":0,"classes":[`
	accepted := map[string]string{
		"canonical":        string(hi),
		"reordered":        string(reordered(t, hi)),
		"identity":         `{"version":1,"identity":"` + strings.Repeat("a5", 32) + `","space":"memory","cycles":3,"bits":2,"knownNoEffect":6}`,
		"keys missing":     `{"version":1,"space":"memory","cycles":3,"bits":2,"knownNoEffect":6}`,
		"null serial":      `{"version":1,"space":"memory","serial":null,"cycles":3,"bits":2,"knownNoEffect":6}`,
		"empty serial":     `{"version":1,"space":"memory","serial":"","cycles":3,"bits":2,"knownNoEffect":6}`,
		"empty class list": `{"version":1,"space":"pc","cycles":3,"bits":2,"knownNoEffect":6,"classes":[ ]}`,
		"classes first":    `{"classes":[{"o":1,"u":3,"d":0,"b":1}],"bits":2,"cycles":3,"knownNoEffect":3,"space":"memory","version":1}`,
		// Classes that leave Encode's layout among classes in it.
		"spaced class":    three + `{"b":0,"d":0,"u":3,"o":1}, { "b" : 1,"d":0,"u":3,"o":2 },{"b":2,"d":0,"u":3,"o":0}]}`,
		"reordered class": three + `{"b":0,"d":0,"u":3,"o":1},{"o":2,"u":3,"d":0,"b":1},{"b":2,"d":0,"u":3,"o":0}]}`,
		"class key missing": `{"version":1,"space":"memory","cycles":3,"bits":3,"knownNoEffect":0,"classes":` +
			`[{"b":0,"d":0,"u":3,"o":1},{"b":1,"u":3,"o":2},{"b":2,"d":0,"u":3,"o":0}]}`,
	}
	for name, src := range accepted {
		got, err := decodeEveryWay(t, []byte(src))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if want, err := referenceDecode(strings.NewReader(src)); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: differs from the reflective decoder (err %v):\n got %+v\nwant %+v", name, err, got, want)
		}
		if n, err := ClassCount([]byte(src)); err != nil || n != len(got.Space.Classes) {
			t.Errorf("%s: ClassCount = %d (err %v), Decode has %d classes", name, n, err, len(got.Space.Classes))
		}
	}

	const base = `{"version":1,"space":"memory","cycles":3,"bits":2,"knownNoEffect":3,"classes":[{"b":1,"d":0,"u":3,"o":1}]`
	const first = `{"b":0,"d":0,"u":3,"o":1},`
	rejected := map[string]struct {
		src string
		at  int
	}{
		"repeated key":        {base + `,"cycles":3}`, len(base) + 1},
		"unknown key":         {base + `,"comment":""}`, len(base) + 1},
		"key in another case": {base + `,"Name":"x"}`, len(base) + 1},
		"escaped key":         {base + `,"n\u0061me":"x"}`, len(base) + 1},
		"repeated class key":  {`{"classes":[{"b":1,"b":1}]}`, 19},
		"trailing data":       {base + `} x`, len(base) + 2},
		"second archive":      {base + `}` + base + `}`, len(base) + 1},
		"leading zero":        {`{"cycles":03}`, 10},
		"negative":            {`{"cycles":-3}`, 10},
		"fraction":            {`{"cycles":3.0}`, 11},
		"outcome above uint8": {`{"classes":[{"o":256}]}`, 17},
		"uint64 overflow":     {`{"bits":18446744073709551616}`, 8},
		"null class":          {`{"classes":[null]}`, 12},
		"null number":         {`{"cycles":null}`, 10},
		// Encode's layout but for one number, in the second class.
		"leading zero in a class":        {three + first + `{"b":01,"d":0,"u":3,"o":2}]}`, len(three+first) + 5},
		"20 digits in a class":           {three + first + `{"b":1,"d":18446744073709551616,"u":3,"o":2}]}`, len(three+first) + 11},
		"outcome above uint8 in a class": {three + first + `{"b":1,"d":0,"u":3,"o":256}]}`, len(three+first) + 23},
	}
	for name, tc := range rejected {
		_, err := decodeEveryWay(t, []byte(tc.src))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("byte %d:", tc.at)) {
			t.Errorf("%s: err = %v, want one naming byte %d", name, err, tc.at)
		}
	}
}

// FuzzScanArchiveDecode: Decode never panics, and whatever it accepts the
// reflective decoder accepts too and decodes to a deeply equal result —
// nil and empty serial output told apart. Decode in place, through a
// buffer and split into parts of one or two classes agree on every input,
// error texts included.
func FuzzScanArchiveDecode(f *testing.F) {
	hi := hiArchive(f)
	f.Add(hi)
	f.Add(reordered(f, hi))
	// The rows of the root package's TestLoadScanRejectsGarbage.
	const valid = `{"version":1,"name":"x","space":"memory","cycles":10,"bits":1,
	  "knownNoEffect":5,"classes":[{"b":0,"d":0,"u":5,"o":0}]}`
	for _, src := range []string{
		``,
		`not json`,
		`{"version":99}`,
		`{"version":1,"space":"plutonium","cycles":1,"bits":8}`,
		`{"version":1,"name":"x","space":"memory","cycles":10,"bits":8,
		  "knownNoEffect":0,"classes":[{"b":0,"d":0,"u":5,"o":0}]}`,
		`{"version":1,"name":"x","space":"memory","cycles":10,"bits":1,
		  "knownNoEffect":5,"classes":[{"b":0,"d":0,"u":5,"o":200}]}`,
		`{"version":1,"name":"x","space":"memory","cycles":10,"bits":2,
		  "knownNoEffect":8,"classes":[{"b":1,"d":0,"u":6,"o":0},{"b":0,"d":0,"u":6,"o":0}]}`,
		valid + "\n" + valid,
		valid + " garbage",
	} {
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeEveryWay(t, data)
		if err != nil {
			return
		}
		want, err := referenceDecode(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("Decode accepted what the reflective decoder rejects (%v): %q", err, data)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Decode differs from the reflective decoder on %q:\n got %+v\nwant %+v", data, got, want)
		}
	})
}
