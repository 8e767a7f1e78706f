package lease

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strconv"
	"strings"
	"testing"
	"time"

	"faultspace/internal/campaign"
	"faultspace/internal/checkpoint"
)

// t0 is the virtual start of every campaign below.
var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// split carves classes [0, total) into units of size n.
func split(total, n int) [][]int {
	var units [][]int
	for lo := 0; lo < total; lo += n {
		var u []int
		for ci := lo; ci < min(lo+n, total); ci++ {
			u = append(u, ci)
		}
		units = append(units, u)
	}
	return units
}

// entries is a unit's full submission, every class with outcome of(ci).
func entries(classes []int, of func(int) campaign.Outcome) []checkpoint.Entry {
	out := make([]checkpoint.Entry, len(classes))
	for i, ci := range classes {
		out[i] = checkpoint.Entry{Class: ci, Outcome: uint8(of(ci))}
	}
	return out
}

// TestNextExpiryCache: the cached earliest deadline equals a scan over
// the units after everything that grants, extends or ends a lease — the
// adapter's timer and the reclaim rely on it — and so does the Next
// effect. Once every lease has expired the next ask reclaims them and is
// granted one.
func TestNextExpiryCache(t *testing.T) {
	const ttl = 150 * time.Millisecond
	s := New(t0, ttl, 16, nil, split(16, 4))
	now := t0
	step := func(ev Event) Effects {
		now = now.Add(10 * time.Millisecond)
		return s.Step(now, ev)
	}
	check := func(after string, eff Effects) {
		t.Helper()
		var scan time.Time
		for _, u := range s.units {
			if u.state == unitLeased && (scan.IsZero() || u.deadline.Before(scan)) {
				scan = u.deadline
			}
		}
		if got := s.nextExpiry(); !got.Equal(scan) {
			t.Errorf("after %s: cached earliest deadline %v, a scan finds %v", after, got, scan)
		}
		if !eff.Next.Equal(scan) {
			t.Errorf("after %s: Next effect %v, a scan finds %v", after, eff.Next, scan)
		}
	}
	outcome := func(ci int) campaign.Outcome { return campaign.OutcomeNoEffect }
	check("start", step(Event{Kind: Tick}))
	eff := step(Event{Kind: Ask, Worker: "a"})
	a := eff.Reply
	check("first grant", eff)
	b := step(Event{Kind: Ask, Worker: "b"}).Reply
	check("three grants", step(Event{Kind: Ask, Worker: "c"}))
	check("heartbeat of the earliest lease", step(Event{Kind: Heartbeat, Worker: "a", Units: []uint64{a.Unit}}))
	check("submit", step(Event{Kind: Submit, Worker: "b", Unit: b.Unit, Entries: entries(b.Classes, outcome)}))
	check("leave", step(Event{Kind: Leave, Worker: "c"}))
	for eff = step(Event{Kind: Ask, Worker: "d"}); eff.Reply.Status == Granted; eff = step(Event{Kind: Ask, Worker: "d"}) {
	}
	check("everything leased", eff)
	// The rest expire together; the next ask reclaims and is granted one.
	now = now.Add(ttl)
	if eff = step(Event{Kind: Ask, Worker: "e"}); eff.Reply.Status != Granted {
		t.Fatalf("ask after every lease expired: status %d, want a reclaimed unit", eff.Reply.Status)
	}
	check("reclaim", eff)
}

// TestWindowedWorkerRates pins the /v1/status rate semantics: a worker's
// experiments-per-second is averaged over the last rate window, so after
// an idle stretch it decays to zero instead of being diluted over the
// whole session (the since-join bug this replaces).
func TestWindowedWorkerRates(t *testing.T) {
	s := New(t0, time.Minute, 16, nil, split(16, 8))
	u := s.Step(t0, Event{Kind: Ask, Worker: "w"}).Reply
	if u.Status != Granted {
		t.Fatalf("lease: status %d, want granted", u.Status)
	}
	at := t0.Add(time.Second)
	s.Step(at, Event{Kind: Submit, Worker: "w", Unit: u.Unit,
		Entries: entries(u.Classes, func(int) campaign.Outcome { return campaign.OutcomeSDC })})

	rateOf := func(p Progress) float64 {
		for _, ws := range p.Workers {
			if ws.ID == "w" {
				return ws.Rate
			}
		}
		t.Fatal("worker w missing from progress")
		return 0
	}
	if r := rateOf(s.Progress(at, false)); r <= 0 {
		t.Errorf("rate right after submitting = %g, want > 0", r)
	}
	// Two idle windows later the rate must have decayed to zero. The
	// first snapshot closes whatever window the submission landed in;
	// the second covers a fully idle one.
	at = at.Add(RateWindow + RateWindow/5)
	s.Progress(at, false)
	at = at.Add(RateWindow + RateWindow/5)
	if r := rateOf(s.Progress(at, false)); r != 0 {
		t.Errorf("rate after two idle windows = %g, want 0", r)
	}
}

// TestPurity holds the package to what makes it explorable: it imports
// no lock, no HTTP and no telemetry, and reads no clock and sets no
// timer — time.Time and time.Duration values are all it uses of time.
func TestPurity(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	banned := map[string]bool{"sync": true, "sync/atomic": true, "net/http": true, "faultspace/internal/telemetry": true}
	clock := map[string]bool{"Now": true, "Since": true, "Until": true, "Sleep": true, "After": true, "AfterFunc": true,
		"NewTimer": true, "NewTicker": true, "Tick": true}
	files := 0
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			files++
			timeName := ""
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if banned[path] {
					t.Errorf("%s imports %s", name, path)
				}
				if path == "time" {
					timeName = "time"
					if imp.Name != nil {
						timeName = imp.Name.Name
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if n, ok := n.(*ast.GoStmt); ok {
					t.Errorf("%s: go statement at %v", name, fset.Position(n.Pos()))
				}
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); ok && timeName != "" && id.Name == timeName && clock[sel.Sel.Name] {
					t.Errorf("%s: time.%s at %v", name, sel.Sel.Name, fset.Position(sel.Pos()))
				}
				return true
			})
		}
	}
	if files == 0 {
		t.Fatal("no package files parsed")
	}
}
