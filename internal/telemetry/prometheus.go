package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// MetricSet pairs one snapshot with constant labels applied to every
// series rendered from it. The service exposes one set per campaign
// (labelled by campaign id and tenant) and one per worker of a campaign
// (the worker ID on top).
type MetricSet struct {
	Labels map[string]string
	Snap   Snapshot
}

// WritePrometheus renders one snapshot in the Prometheus text
// exposition format (version 0.0.4). Stdlib only — see
// WritePrometheusSets for the multi-set form.
func WritePrometheus(w io.Writer, snap Snapshot, labels map[string]string) error {
	return WritePrometheusSets(w, []MetricSet{{Labels: labels, Snap: snap}})
}

// WritePrometheusSets renders several labelled snapshots as one
// Prometheus text-format document. Dotted registry names are mangled to
// metric names (`scan.experiments` → `faultspace_scan_experiments_total`),
// counters get a `_total` suffix, and duration histograms are rendered
// as Prometheus histograms in seconds with cumulative `_bucket{le=...}`
// series, `_sum` and `_count`. Each metric name carries exactly one
// `# TYPE` line even when it appears in several sets; output order is
// deterministic (sorted names, sets in argument order).
func WritePrometheusSets(w io.Writer, sets []MetricSet) error {
	type sample struct {
		set  int
		name string // registry name
	}
	var counters, gauges, hists []sample
	counterNames := map[string]bool{}
	gaugeNames := map[string]bool{}
	histNames := map[string]bool{}
	for i, set := range sets {
		for name := range set.Snap.Counters {
			counters = append(counters, sample{i, name})
			counterNames[name] = true
		}
		for name := range set.Snap.Gauges {
			gauges = append(gauges, sample{i, name})
			gaugeNames[name] = true
		}
		for name := range set.Snap.Histograms {
			hists = append(hists, sample{i, name})
			histNames[name] = true
		}
	}
	order := func(s []sample) {
		sort.Slice(s, func(i, j int) bool {
			if s[i].name != s[j].name {
				return s[i].name < s[j].name
			}
			return s[i].set < s[j].set
		})
	}
	order(counters)
	order(gauges)
	order(hists)

	var b strings.Builder
	typed := map[string]bool{}
	writeType := func(metric, kind string) {
		if !typed[metric] {
			typed[metric] = true
			fmt.Fprintf(&b, "# TYPE %s %s\n", metric, kind)
		}
	}
	for _, s := range counters {
		metric := promName(s.name) + "_total"
		writeType(metric, "counter")
		fmt.Fprintf(&b, "%s%s %d\n", metric, promLabels(sets[s.set].Labels, "", 0), sets[s.set].Snap.Counters[s.name])
	}
	for _, s := range gauges {
		metric := promName(s.name)
		writeType(metric, "gauge")
		fmt.Fprintf(&b, "%s%s %d\n", metric, promLabels(sets[s.set].Labels, "", 0), sets[s.set].Snap.Gauges[s.name])
	}
	for _, s := range hists {
		metric := promName(s.name) + "_seconds"
		writeType(metric, "histogram")
		h := sets[s.set].Snap.Histograms[s.name]
		labels := sets[s.set].Labels
		var cum uint64
		for _, bucket := range h.Buckets {
			if bucket.LeUs == 0 {
				// Unbounded overflow bucket: folded into +Inf below.
				cum += bucket.Count
				continue
			}
			cum += bucket.Count
			le := float64(bucket.LeUs) / 1e6 // µs upper bound → seconds
			fmt.Fprintf(&b, "%s_bucket%s %d\n", metric, promLabels(labels, "le", le), cum)
		}
		fmt.Fprintf(&b, "%s_bucket%s %d\n", metric, promLabelsInf(labels), h.Count)
		fmt.Fprintf(&b, "%s_sum%s %g\n", metric, promLabels(labels, "", 0), float64(h.SumNs)/1e9)
		fmt.Fprintf(&b, "%s_count%s %d\n", metric, promLabels(labels, "", 0), h.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// promName mangles a dotted registry name into a valid Prometheus
// metric name under the faultspace_ namespace.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("faultspace_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabels renders a label set, optionally with one extra float label
// (the histogram le bound). Keys are sorted; values are escaped per the
// exposition format (backslash, double quote, newline).
func promLabels(labels map[string]string, extraKey string, extraVal float64) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		// %q escaping matches the exposition format: \\, \" and \n.
		fmt.Fprintf(&b, "%s=%q", promLabelName(k), labels[k])
	}
	if extraKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=\"%g\"", extraKey, extraVal)
	}
	b.WriteByte('}')
	return b.String()
}

// promLabelsInf is promLabels with le="+Inf" (which %g cannot render).
func promLabelsInf(labels map[string]string) string {
	s := promLabels(labels, "", 0)
	if s == "" {
		return `{le="+Inf"}`
	}
	return s[:len(s)-1] + `,le="+Inf"}`
}

func promLabelName(name string) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_',
			c >= '0' && c <= '9' && i > 0:
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
