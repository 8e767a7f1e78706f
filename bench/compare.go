package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// loadResults reads the end-to-end results of an -out directory, keyed
// by file name (workload and seed).
func loadResults(dir string) (map[string]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := make(map[string]*result)
	for _, path := range paths {
		name := filepath.Base(path)
		if strings.HasSuffix(name, "-layers.json") || strings.HasSuffix(name, ".trace.json") {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out[name] = &r
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no end-to-end results", dir)
	}
	return out, nil
}

// verdict judges one metric of one workload: whether new is worse than
// old by more than the bound. Where the spread either side recorded is
// wider than the bound, the two cannot be told apart at that bound and
// the metric is unresolved, not unchanged.
func verdict(d metricDef, old, new value) (change float64, word string) {
	change = ratio(new.Value-old.Value, old.Value)
	worse := change
	if d.Better == "higher" {
		worse = -change
	}
	switch {
	case old.Spread > d.Bound || new.Spread > d.Bound:
		return change, "unresolved"
	case worse > d.Bound:
		return change, "REGRESSION"
	case worse < -d.Bound:
		return change, "improved"
	}
	return change, "ok"
}

// compareDirs prints one row per workload and end-to-end metric and
// reports whether anything regressed: a metric beyond its bound, a rise
// in failed campaigns, or a result that is not correct.
func compareDirs(w io.Writer, oldDir, newDir string) (regressed bool, err error) {
	olds, err := loadResults(oldDir)
	if err != nil {
		return false, err
	}
	news, err := loadResults(newDir)
	if err != nil {
		return false, err
	}
	var names []string
	for name := range olds {
		if news[name] != nil {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return false, fmt.Errorf("%s and %s have no result in common", oldDir, newDir)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-13s %-18s %14s %14s %8s %6s %7s  %s\n",
		"workload", "metric", "old", "new", "change", "bound", "spread", "verdict")
	for _, name := range names {
		o, n := olds[name], news[name]
		for _, d := range endToEnd {
			ov, nv := o.Metrics[d.Name], n.Metrics[d.Name]
			change, word := verdict(d, ov, nv)
			regressed = regressed || word == "REGRESSION"
			fmt.Fprintf(w, "%-13s %-18s %14.4f %14.4f %+7.1f%% %5.0f%% %6.1f%%  %s\n",
				o.Workload, d.Name, ov.Value, nv.Value, 100*change, 100*d.Bound,
				100*max(ov.Spread, nv.Spread), word)
		}
		if n.FailedShare > o.FailedShare || !n.Correct {
			regressed = true
			fmt.Fprintf(w, "%-13s failed_share %.4f -> %.4f, correct %v -> %v  REGRESSION\n",
				o.Workload, o.FailedShare, n.FailedShare, o.Correct, n.Correct)
		}
	}
	return regressed, nil
}
