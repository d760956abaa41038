package frontend

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"shastamon/internal/stats"
)

// maxPoints caps a range query's resolution: (end−start)/step may not
// exceed it. Prometheus and Loki both refuse more than 11,000 points
// per series.
const maxPoints = 11000

// Engine is a query engine as the query API drives it: its tracker and
// its entry points over a parsed expression E, times in engine units.
type Engine[E any] interface {
	Tracker() *stats.Tracker
	InstantContext(ctx context.Context, expr E, ts int64) (Vector, error)
	RangeContext(ctx context.Context, expr E, start, end int64, step time.Duration) (Matrix, error)
}

// StreamsFunc evaluates a log-stream query over [start, end] and
// returns its "streams" result, ready to encode.
type StreamsFunc func(ctx context.Context, start, end int64) (any, error)

// API binds one query language to the query HTTP surface: the instant
// endpoint Prefix+"/query?query=&time=" and the range endpoint
// Prefix+"/query_range?query=&start=&end=&step=", both taking nocache.
// Times are Unix times in the API's wire unit or RFC3339, defaulting to
// now (end, time) and now−1h (start); step is float seconds, default 60.
// Responses follow the Prometheus envelope, extended with a `statistics`
// object in `data` and a Server-Timing summary header. With a tracker
// attached to the engine, each query is registered on /debug/queries,
// limit-armed and killable for its duration.
type API[E any] struct {
	Engine Engine[E]
	Name   string // tracker engine label: "logql" or "promql"
	Prefix string // "/loki/api/v1" or "/api/v1"
	// Unit is the engine time unit. Seconds says numeric times on the
	// wire are float Unix seconds (Prometheus) rather than integer Unix
	// nanoseconds (Loki).
	Unit    time.Duration
	Seconds bool
	Parse   func(query string) (E, error)
	// Streams, for a language with log-stream queries, returns the
	// evaluation of a log-stream query and nil for a metric query.
	Streams func(expr E) StreamsFunc
}

// ServeHTTP serves the instant and range endpoints.
func (a API[E]) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	v := r.URL.Query()
	instant := r.URL.Path == a.Prefix+"/query"
	if !instant && r.URL.Path != a.Prefix+"/query_range" {
		http.NotFound(w, r)
		return
	}
	expr, streams, start, end, step, err := a.parse(v, instant)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx, finish := a.Engine.Tracker().Start(r.Context(), a.Name, v.Get("query"))
	if nc := v.Get("nocache"); nc == "1" || nc == "true" {
		ctx = WithoutCache(ctx)
	}
	var result any
	var resultType string
	var n int
	switch {
	case instant:
		var vec Vector
		vec, err = a.Engine.InstantContext(ctx, expr, start)
		out := make([]map[string]any, 0, len(vec))
		for _, s := range vec {
			out = append(out, map[string]any{"metric": s.Labels.Map(), "value": a.point(s.T, s.V)})
		}
		result, resultType, n = out, "vector", len(vec)
	case streams != nil:
		result, err = streams(ctx, start, end)
		resultType = "streams"
	default:
		var m Matrix
		m, err = a.Engine.RangeContext(ctx, expr, start, end, step)
		out := make([]map[string]any, 0, len(m))
		for _, s := range m {
			values := make([][2]any, 0, len(s.Points))
			for _, p := range s.Points {
				values = append(values, a.point(p.T, p.V))
			}
			out = append(out, map[string]any{"metric": s.Labels.Map(), "values": values})
		}
		result, resultType, n = out, "matrix", m.NumPoints()
	}
	stats.FromContext(ctx).AddEntriesReturned(int64(n))
	snap := finish(err)
	if err != nil {
		writeError(w, stats.HTTPStatus(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Server-Timing", snap.ServerTiming())
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status": "success",
		"data":   map[string]any{"resultType": resultType, "result": result, "statistics": snap},
	})
}

// parse reads an instant (time) or range (start, end and, for metric
// queries, step) request and its query.
func (a API[E]) parse(v url.Values, instant bool) (expr E, streams StreamsFunc, start, end int64, step time.Duration, err error) {
	if instant {
		start, err = a.parseTime(v, "time", 0)
	} else if start, err = a.parseTime(v, "start", -time.Hour); err == nil {
		end, err = a.parseTime(v, "end", 0)
	}
	if err == nil {
		expr, err = a.Parse(v.Get("query"))
	}
	if err == nil && a.Streams != nil {
		streams = a.Streams(expr)
	}
	switch {
	case err != nil:
	case instant && streams != nil:
		err = errors.New("instant queries require a metric expression")
	case !instant && streams == nil:
		step, err = a.parseStep(v, start, end)
	}
	return expr, streams, start, end, step, err
}

// point renders one sample as [unix seconds, "value"].
func (a API[E]) point(t int64, v float64) [2]any {
	return [2]any{float64(t) / float64(time.Second/a.Unit), strconv.FormatFloat(v, 'g', -1, 64)}
}

// writeError writes the error envelope: errorType bad_data for a 400,
// execution when a well-formed query failed to run.
func writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	errorType := "bad_data"
	if code != http.StatusBadRequest {
		errorType = "execution"
	}
	_ = json.NewEncoder(w).Encode(map[string]any{"status": "error", "errorType": errorType, "error": err.Error()})
}

// parseTime reads the time parameter name in engine units. Empty takes
// now plus def; a number is Unix time in the wire unit; anything else
// must be RFC3339. Times outside int64 nanoseconds are refused.
func (a API[E]) parseTime(v url.Values, name string, def time.Duration) (int64, error) {
	s := v.Get(name)
	ns, ok := time.Now().Add(def).UnixNano(), true
	if s != "" {
		if a.Seconds {
			ns, ok = seconds(s)
		} else {
			n, err := strconv.ParseInt(s, 10, 64)
			ns, ok = n, err == nil
		}
	}
	if !ok {
		t, err := time.Parse(time.RFC3339, s)
		ns, ok = t.UnixNano(), err == nil && !t.Before(time.Unix(0, math.MinInt64)) && !t.After(time.Unix(0, math.MaxInt64))
	}
	if !ok {
		return 0, fmt.Errorf("invalid parameter %q: cannot parse %q to a valid timestamp", name, s)
	}
	return floorDiv(ns, int64(a.Unit)), nil
}

// parseStep reads the step parameter of a metric range over [start,
// end]: float seconds, default 60, at least one engine unit and at most
// maxPoints steps across the range.
func (a API[E]) parseStep(v url.Values, start, end int64) (time.Duration, error) {
	s := cmp.Or(v.Get("step"), "60")
	ns, ok := seconds(s)
	step := time.Duration(ns)
	switch {
	case !ok:
		return 0, fmt.Errorf("invalid parameter \"step\": cannot parse %q to a valid duration", s)
	case step < a.Unit:
		return 0, fmt.Errorf("invalid parameter \"step\": %q is below the %v resolution", s, a.Unit)
	case end > start && uint64(end-start)/uint64(step/a.Unit) > maxPoints:
		return 0, errors.New("exceeded maximum resolution of 11,000 points per timeseries. Try decreasing the query resolution (?step=XX)")
	}
	return step, nil
}

// seconds decodes decimal seconds to nanoseconds, truncating toward
// zero. A plain decimal decodes exactly, so a time the API renders
// (engine time / units per second) decodes back to itself; other float
// syntax (exponents, hex) goes through float64. Non-finite values and
// values outside int64 nanoseconds fail.
func seconds(s string) (int64, bool) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || !(math.Abs(f*1e9) < 1<<63) {
		return 0, false
	}
	if strings.Trim(s, "+-.0123456789") != "" {
		return int64(f * 1e9), true
	}
	whole, frac, _ := strings.Cut(s, ".")
	ns, err := strconv.ParseInt(whole+(frac + "000000000")[:9], 10, 64)
	return ns, err == nil
}
