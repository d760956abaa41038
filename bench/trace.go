package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the harness made into the program. Spans of one
// cycle, query round or tick share a Trace id; Parent is the index of the
// enclosing span in the recorder (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Trace  int    `json:"trace"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the recorder's origin
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory; a nil tracer records nothing, so the
// untraced run pays one nil check per call.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int // stack of open span indices
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string, trace int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Trace: trace, Parent: parent, Start: int64(time.Since(t.origin))})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.origin))
	t.open = t.open[:len(t.open)-1]
}

// selfTimes fills Self: a span's duration minus the part of its interval
// its direct children cover. Children never overlap each other here (one
// driver goroutine), so that part is the sum of their durations.
func selfTimes(spans []span) {
	for i := range spans {
		spans[i].Self = spans[i].End - spans[i].Start
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			spans[s.Parent].Self -= s.End - s.Start
		}
	}
}

// spanTotal summarises every span of one name.
type spanTotal struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func totals(spans []span) []spanTotal {
	by := map[string]*spanTotal{}
	for _, s := range spans {
		t := by[s.Name]
		if t == nil {
			t = &spanTotal{Name: s.Name}
			by[s.Name] = t
		}
		t.Count++
		t.TotalMs += float64(s.End-s.Start) / 1e6
		t.SelfMs += float64(s.Self) / 1e6
	}
	out := make([]spanTotal, 0, len(by))
	for _, t := range by {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// traceFile is what out/trace-<workload>.json holds.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Totals   []spanTotal        `json:"totals"`
	Stages   map[string]float64 `json:"tick_stage_seconds"` // from Gather()
	Spans    []span             `json:"spans"`
}

func (t *tracer) write(dir, workload string, seed int64, stages map[string]float64) (string, error) {
	selfTimes(t.spans)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Totals: totals(t.spans), Stages: stages, Spans: t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
