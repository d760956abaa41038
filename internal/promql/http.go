package promql

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"shastamon/internal/frontend"
	"shastamon/internal/stats"
)

// Handler exposes the Prometheus-compatible query API over this engine:
//
//	GET /api/v1/query?query=...&time=<unix seconds, float>
//	GET /api/v1/query_range?query=...&start=...&end=...&step=<seconds>
//
// Responses follow the Prometheus response envelope so Grafana-style
// clients can consume them, extended with a `statistics` object in `data`
// and a Server-Timing summary header. When a tracker is attached
// (SetTracker) the query is registered on /debug/queries, limit-armed and
// killable for its duration.
func (e *Engine) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/query", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query().Get("query")
		ts, err := parseUnixSeconds(r.URL.Query().Get("time"), time.Now())
		if err != nil {
			writePromError(w, http.StatusBadRequest, err)
			return
		}
		expr, err := Parse(q)
		if err != nil {
			writePromError(w, http.StatusBadRequest, err)
			return
		}
		ctx, finish := e.Tracker().Start(r.Context(), "promql", q)
		vec, err := e.InstantContext(ctx, expr, ts.UnixMilli())
		stats.FromContext(ctx).AddEntriesReturned(int64(len(vec)))
		snap := finish(err)
		if err != nil {
			writePromError(w, stats.HTTPStatus(err), err)
			return
		}
		result := make([]map[string]interface{}, 0, len(vec))
		for _, s := range vec {
			result = append(result, map[string]interface{}{
				"metric": s.Labels.Map(),
				"value":  []interface{}{float64(s.T) / 1000, strconv.FormatFloat(s.V, 'g', -1, 64)},
			})
		}
		writePromJSON(w, "vector", result, snap)
	})
	mux.HandleFunc("/api/v1/query_range", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query().Get("query")
		now := time.Now()
		start, err := parseUnixSeconds(r.URL.Query().Get("start"), now.Add(-time.Hour))
		if err != nil {
			writePromError(w, http.StatusBadRequest, err)
			return
		}
		end, err := parseUnixSeconds(r.URL.Query().Get("end"), now)
		if err != nil {
			writePromError(w, http.StatusBadRequest, err)
			return
		}
		stepS := r.URL.Query().Get("step")
		if stepS == "" {
			stepS = "60"
		}
		stepF, err := strconv.ParseFloat(stepS, 64)
		step := time.Duration(stepF * float64(time.Second))
		if err != nil || step < time.Millisecond {
			writePromError(w, http.StatusBadRequest, fmt.Errorf("bad step %q", stepS))
			return
		}
		expr, err := Parse(q)
		if err != nil {
			writePromError(w, http.StatusBadRequest, err)
			return
		}
		ctx, finish := e.Tracker().Start(r.Context(), "promql", q)
		if noCacheParam(r) {
			ctx = frontend.WithoutCache(ctx)
		}
		m, err := e.RangeContext(ctx, expr, start.UnixMilli(), end.UnixMilli(), step)
		stats.FromContext(ctx).AddEntriesReturned(int64(m.NumPoints()))
		snap := finish(err)
		if err != nil {
			writePromError(w, stats.HTTPStatus(err), err)
			return
		}
		result := make([]map[string]interface{}, 0, len(m))
		for _, s := range m {
			values := make([][2]interface{}, 0, len(s.Points))
			for _, p := range s.Points {
				values = append(values, [2]interface{}{float64(p.T) / 1000, strconv.FormatFloat(p.V, 'g', -1, 64)})
			}
			result = append(result, map[string]interface{}{
				"metric": s.Labels.Map(),
				"values": values,
			})
		}
		writePromJSON(w, "matrix", result, snap)
	})
	return mux
}

// noCacheParam reports whether the request asked to bypass the
// frontend's results cache (nocache=1, for A/B latency measurement).
func noCacheParam(r *http.Request) bool {
	v := r.URL.Query().Get("nocache")
	return v == "1" || v == "true"
}

func parseUnixSeconds(s string, def time.Time) (time.Time, error) {
	if s == "" {
		return def, nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return time.Time{}, fmt.Errorf("promql: bad time %q", s)
	}
	return time.Unix(0, int64(f*float64(time.Second))), nil
}

func writePromJSON(w http.ResponseWriter, resultType string, result interface{}, snap stats.Snapshot) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Server-Timing", snap.ServerTiming())
	_ = json.NewEncoder(w).Encode(map[string]interface{}{
		"status": "success",
		"data": map[string]interface{}{
			"resultType": resultType,
			"result":     result,
			"statistics": snap,
		},
	})
}

func writePromError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	errorType := "bad_data"
	if code != http.StatusBadRequest {
		errorType = "execution" // the query was well-formed; running it failed
	}
	_ = json.NewEncoder(w).Encode(map[string]interface{}{
		"status": "error", "errorType": errorType, "error": err.Error(),
	})
}
