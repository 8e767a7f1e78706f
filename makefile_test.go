package faultspace

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMakefileNamesExist checks every -run=, -fuzz= and -bench= name in
// the Makefile against the test functions of the packages its line names:
// `go test -run` with no match exits 0, so a renamed or deleted test
// would otherwise hollow out a gate target without failing it.
func TestMakefileNamesExist(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	flag := regexp.MustCompile(`-(run|fuzz|bench)=('[^']*'|\S+)`)
	funcDecl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	prefix := map[string]string{"run": "Test", "fuzz": "Fuzz", "bench": "Benchmark"}
	checked := 0
	for n, line := range strings.Split(string(mk), "\n") {
		if !strings.Contains(line, "$(GO) test") {
			continue
		}
		var pkgs, funcs []string
		for _, arg := range strings.Fields(line) {
			if arg == "." || strings.HasPrefix(arg, "./") {
				pkgs = append(pkgs, arg)
			}
		}
		if len(pkgs) == 0 {
			pkgs = []string{"."} // go test's default
		}
		for _, pkg := range pkgs {
			files, err := filepath.Glob(filepath.Join(pkg, "*_test.go"))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				src, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range funcDecl.FindAllStringSubmatch(string(src), -1) {
					funcs = append(funcs, m[1])
				}
			}
		}
		for _, m := range flag.FindAllStringSubmatch(line, -1) {
			pattern := strings.ReplaceAll(strings.Trim(m[2], "'"), "$$", "$")
			if pattern == "^$" {
				continue // "run no tests", the companion of -fuzz and -bench
			}
			for _, alt := range strings.Split(pattern, "|") {
				alt, _, _ = strings.Cut(alt, "/") // a subtest's parent names the function
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("Makefile:%d: -%s=%s: %v", n+1, m[1], alt, err)
					continue
				}
				found := false
				for _, fn := range funcs {
					found = found || strings.HasPrefix(fn, prefix[m[1]]) && re.MatchString(fn)
				}
				if !found {
					t.Errorf("Makefile:%d: -%s=%s matches no %s function in the packages of that line",
						n+1, m[1], alt, prefix[m[1]])
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Error("no name checked: the Makefile's go test lines are no longer being parsed")
	}
}
