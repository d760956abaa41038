package main

import (
	"fmt"
	"time"

	"shastamon/internal/labels"
	"shastamon/internal/logql"
	"shastamon/internal/promql"
)

// The reference answers every benchmark query by a linear scan over the
// generated inputs. It shares no code with the engines it checks: no
// chunks, no index, no stages, no cache. Keep it naive.

// countWindow counts events per key in the LogQL range-vector window
// (at-window, at].
func countWindow(evs []event, at time.Time, window time.Duration) map[string]float64 {
	hi := at.UnixNano()
	lo := hi - int64(window)
	out := map[string]float64{}
	for _, e := range evs {
		if e.ts > lo && e.ts <= hi {
			out[e.key]++
		}
	}
	return out
}

// countRange evaluates countWindow at every step of [start, end]; a key
// has a point only where its count is above zero, as a range query
// returns it.
func countRange(evs []event, start, end time.Time, step, window time.Duration) map[string]map[int64]float64 {
	out := map[string]map[int64]float64{}
	for at := start; !at.After(end); at = at.Add(step) {
		for key, n := range countWindow(evs, at, window) {
			if out[key] == nil {
				out[key] = map[int64]float64{}
			}
			out[key][at.UnixNano()] = n
		}
	}
	return out
}

// above answers `metric > threshold` at an instant: per series the newest
// sample at or before at, no older than the 5m staleness window, kept
// when it exceeds the threshold.
func above(series map[string][]metricSample, at time.Time, threshold float64) map[string]float64 {
	hi := at.UnixMilli()
	lo := hi - promql.DefaultLookback.Milliseconds()
	out := map[string]float64{}
	for key, samples := range series {
		var newest *metricSample
		for i := range samples {
			if s := &samples[i]; s.ms <= hi && s.ms >= lo && (newest == nil || s.ms > newest.ms) {
				newest = s
			}
		}
		if newest != nil && newest.v > threshold {
			out[key] = newest.v
		}
	}
	return out
}

// row is one sample of an instant result, whichever engine produced it.
type row struct {
	labels labels.Labels
	v      float64
}

func logRows(v logql.Vector) []row {
	out := make([]row, len(v))
	for i, s := range v {
		out[i] = row{s.Labels, s.V}
	}
	return out
}

func metricRows(v promql.Vector) []row {
	out := make([]row, len(v))
	for i, s := range v {
		out[i] = row{s.Labels, s.V}
	}
	return out
}

// byLabel keys a result by one label, refusing duplicates so a result
// that splits one group in two cannot pass.
func byLabel(rows []row, label string) (map[string]float64, error) {
	out := make(map[string]float64, len(rows))
	for _, r := range rows {
		key := r.labels.Get(label)
		if _, dup := out[key]; dup || key == "" {
			return nil, fmt.Errorf("result has a duplicate or empty %s %q", label, key)
		}
		out[key] = r.v
	}
	return out, nil
}

func sameVector(got, want map[string]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d series, reference has %d", len(got), len(want))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			return fmt.Errorf("%s = %v, reference has %v", k, g, w)
		}
	}
	return nil
}

func sameMatrix(got logql.Matrix, label string, want map[string]map[int64]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d series, reference has %d", len(got), len(want))
	}
	for _, s := range got {
		key := s.Labels.Get(label)
		w, ok := want[key]
		if !ok || len(w) != len(s.Points) {
			return fmt.Errorf("series %s has %d points, reference has %d", key, len(s.Points), len(w))
		}
		for _, p := range s.Points {
			if w[p.T] != p.V {
				return fmt.Errorf("series %s at %d = %v, reference has %v", key, p.T, p.V, w[p.T])
			}
		}
	}
	return nil
}
