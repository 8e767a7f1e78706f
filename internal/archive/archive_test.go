package archive

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
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

// checkResult holds Encode to the reference encoder's bytes and Decode to
// giving back what was encoded; it returns the archive.
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
	back, err := Decode(bytes.NewReader(got.Bytes()))
	if err != nil {
		t.Fatalf("%s: Decode: %v", label, err)
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
func scanProgram(t *testing.T, name string, kind pruning.SpaceKind) *campaign.Result {
	t.Helper()
	spec, err := progs.Resolve(name, progs.Sizes{
		BinSemRounds: 1, SyncRounds: 1, SyncBufBytes: 16,
		ClockTicks: 2, ClockPeriod: 32, MboxMessages: 2,
		PreemptWork: 8, PreemptPeriod: 24, SortElements: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
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
// zero identity, nil and empty serial output, names that JSON escapes and
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
	names := []string{"hi", "", `a "quoted" <name> & more`, "sørt1\u2028\t\\", "bin_sem2+sumdmr"}
	name := names[rng.Intn(len(names))]
	golden := &trace.Golden{
		Name:     name,
		Cycles:   fs.Cycles,
		RAMBits:  uint64(rng.Intn(1 << 19)),
		Detects:  uint64(rng.Intn(3)),
		Corrects: rng.Uint64() >> uint(rng.Intn(64)),
	}
	switch rng.Intn(3) {
	case 0: // nil: "serial":null
	case 1:
		golden.Serial = []byte{}
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
