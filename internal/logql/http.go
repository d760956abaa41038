package logql

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"shastamon/internal/frontend"
	"shastamon/internal/stats"
)

// Handler exposes the Loki query API over this engine:
//
//	GET /loki/api/v1/query?query=...&time=<ns>          instant (metric queries)
//	GET /loki/api/v1/query_range?query=...&start=<ns>&end=<ns>&step=<seconds>
//
// Log queries on query_range return resultType "streams"; metric queries
// return "matrix" — matching Loki's response envelope. Every response
// carries a Loki-style `statistics` object in `data` plus a Server-Timing
// header summarising queue/exec/total time and scan volume. When a
// tracker is attached (SetTracker) the query is registered on
// /debug/queries, limit-armed and killable for its duration.
func (e *Engine) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/loki/api/v1/query", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query().Get("query")
		ts, err := parseNS(r.URL.Query().Get("time"), time.Now().UnixNano())
		if err != nil {
			writeLogQLError(w, http.StatusBadRequest, err)
			return
		}
		expr, err := ParseExpr(q)
		if err != nil {
			writeLogQLError(w, http.StatusBadRequest, err)
			return
		}
		me, ok := expr.(MetricExpr)
		if !ok {
			writeLogQLError(w, http.StatusBadRequest, fmt.Errorf("instant queries require a metric expression"))
			return
		}
		ctx, finish := e.tracker.Start(r.Context(), "logql", q)
		vec, err := e.InstantContext(ctx, me, ts)
		stats.FromContext(ctx).AddEntriesReturned(int64(len(vec)))
		snap := finish(err)
		if err != nil {
			writeLogQLError(w, stats.HTTPStatus(err), err)
			return
		}
		result := make([]map[string]interface{}, 0, len(vec))
		for _, s := range vec {
			result = append(result, map[string]interface{}{
				"metric": s.Labels.Map(),
				"value":  []interface{}{float64(s.T) / 1e9, strconv.FormatFloat(s.V, 'g', -1, 64)},
			})
		}
		writeLogQLJSON(w, "vector", result, snap)
	})
	mux.HandleFunc("/loki/api/v1/query_range", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query().Get("query")
		now := time.Now().UnixNano()
		start, err := parseNS(r.URL.Query().Get("start"), now-int64(time.Hour))
		if err != nil {
			writeLogQLError(w, http.StatusBadRequest, err)
			return
		}
		end, err := parseNS(r.URL.Query().Get("end"), now)
		if err != nil {
			writeLogQLError(w, http.StatusBadRequest, err)
			return
		}
		expr, err := ParseExpr(q)
		if err != nil {
			writeLogQLError(w, http.StatusBadRequest, err)
			return
		}
		switch ex := expr.(type) {
		case *LogExpr:
			ctx, finish := e.tracker.Start(r.Context(), "logql", q)
			streams, err := e.SelectLogsContext(ctx, ex, start, end)
			snap := finish(err)
			if err != nil {
				writeLogQLError(w, stats.HTTPStatus(err), err)
				return
			}
			result := make([]map[string]interface{}, 0, len(streams))
			for _, s := range streams {
				values := make([][2]string, 0, len(s.Entries))
				for _, entry := range s.Entries {
					values = append(values, [2]string{strconv.FormatInt(entry.Timestamp, 10), entry.Line})
				}
				result = append(result, map[string]interface{}{
					"stream": s.Labels.Map(),
					"values": values,
				})
			}
			writeLogQLJSON(w, "streams", result, snap)
		case MetricExpr:
			stepS := r.URL.Query().Get("step")
			if stepS == "" {
				stepS = "60"
			}
			stepF, err := strconv.ParseFloat(stepS, 64)
			step := time.Duration(stepF * float64(time.Second))
			if err != nil || step <= 0 {
				writeLogQLError(w, http.StatusBadRequest, fmt.Errorf("bad step %q", stepS))
				return
			}
			ctx, finish := e.tracker.Start(r.Context(), "logql", q)
			if v := r.URL.Query().Get("nocache"); v == "1" || v == "true" {
				ctx = frontend.WithoutCache(ctx)
			}
			m, err := e.RangeContext(ctx, ex, start, end, step)
			points := 0
			for _, s := range m {
				points += len(s.Points)
			}
			stats.FromContext(ctx).AddEntriesReturned(int64(points))
			snap := finish(err)
			if err != nil {
				writeLogQLError(w, stats.HTTPStatus(err), err)
				return
			}
			result := make([]map[string]interface{}, 0, len(m))
			for _, s := range m {
				values := make([][2]interface{}, 0, len(s.Points))
				for _, p := range s.Points {
					values = append(values, [2]interface{}{float64(p.T) / 1e9, strconv.FormatFloat(p.V, 'g', -1, 64)})
				}
				result = append(result, map[string]interface{}{
					"metric": s.Labels.Map(),
					"values": values,
				})
			}
			writeLogQLJSON(w, "matrix", result, snap)
		}
	})
	return mux
}

func parseNS(s string, def int64) (int64, error) {
	if s == "" {
		return def, nil
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("logql: bad nanosecond timestamp %q", s)
	}
	return n, nil
}

func writeLogQLJSON(w http.ResponseWriter, resultType string, result interface{}, snap stats.Snapshot) {
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

func writeLogQLError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]interface{}{"status": "error", "error": err.Error()})
}
