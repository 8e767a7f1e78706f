package telemetry

import (
	"encoding/json"
	"os"
	"time"
)

// Manifest is the machine-readable record of one campaign run: the
// campaign's identity and configuration, the wall/CPU time breakdown,
// the final counter snapshot and, with -trace, the span timeline. favscan
// writes it on exit (and on SIGINT, whose graceful-interrupt path runs
// the same exit code) when -telemetry is set.
type Manifest struct {
	Tool      string    `json:"tool"`
	StartedAt time.Time `json:"started_at"`
	// Campaign identification.
	Benchmark string `json:"benchmark"`
	Identity  string `json:"identity"` // hex campaign identity hash
	Space     string `json:"space"`
	Strategy  string `json:"strategy"`
	Classes   int    `json:"classes"`
	Workers   int    `json:"workers"`
	// Interrupted marks a run stopped by SIGINT/Interrupt: the counters
	// then describe a partial campaign.
	Interrupted bool `json:"interrupted,omitempty"`
	// Timing breakdown. CPU seconds are process-wide (user+system since
	// process start) and 0 on platforms without rusage.
	WallSeconds   float64 `json:"wall_seconds"`
	CPUUserSecs   float64 `json:"cpu_user_seconds"`
	CPUSystemSecs float64 `json:"cpu_system_seconds"`
	// Telemetry is the final instrument snapshot.
	Telemetry Snapshot `json:"telemetry"`
	// TraceID and Spans are the run's span timeline (spans and marks)
	// when span tracing was enabled (favscan -trace); SpansDropped counts
	// what a full recorder discarded and SpansCapacity its size, so a
	// truncated timeline is self-describing.
	TraceID       string `json:"trace_id,omitempty"`
	Spans         []Span `json:"spans,omitempty"`
	SpansDropped  uint64 `json:"spans_dropped,omitempty"`
	SpansCapacity int    `json:"spans_capacity,omitempty"`
}

// Finish stamps the manifest with the registry's final snapshot, span
// timeline and the process CPU times, and computes WallSeconds from
// StartedAt. Safe with a nil registry (the snapshot is empty).
func (m *Manifest) Finish(r *Registry) {
	m.WallSeconds = time.Since(m.StartedAt).Seconds()
	m.CPUUserSecs, m.CPUSystemSecs = cpuTimes()
	m.Telemetry = r.Snapshot()
	if rec := r.SpanRecorder(); rec != nil {
		m.TraceID = rec.TraceID().String()
		m.Spans = rec.Spans()
		m.SpansDropped = rec.Dropped()
		m.SpansCapacity = rec.Cap()
	}
}

// WriteFile writes the manifest as indented JSON to path, atomically
// enough for its purpose: a temp file in the same directory renamed
// over the target, so a crash mid-write never leaves a torn manifest.
func (m *Manifest) WriteFile(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	tmp, err := os.CreateTemp(dirOf(path), ".manifest-*.json")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' || path[i] == os.PathSeparator {
			return path[:i+1]
		}
	}
	return "."
}
