package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"time"

	"shastamon/internal/anomaly"
	"shastamon/internal/core"
	"shastamon/internal/kafka"
	"shastamon/internal/stats"
	"shastamon/internal/tenant"
)

// serverOpts configures the status server independently of flag parsing
// so tests can build the exact handler omnid serves.
type serverOpts struct {
	metrics bool
	auth    *tenant.Auth
	start   time.Time
}

// newStatusMux assembles omnid's status/query server. The query and
// ingest endpoints run behind the tenant auth middleware (a no-op
// passthrough stamping the default tenant when no tokens are
// configured); status, notification and debug endpoints stay open.
func newStatusMux(p *core.Pipeline, o serverOpts) *http.ServeMux {
	if o.start.IsZero() {
		o.start = time.Now()
	}
	if o.auth == nil {
		o.auth = tenant.NewAuth(nil)
	}
	mux := http.NewServeMux()
	writeJSON := func(w http.ResponseWriter, v interface{}) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v)
	}
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]interface{}{
			"uptime_seconds": time.Since(o.start).Seconds(),
			"warehouse":      p.Warehouse.Stats(),
			"kafka":          p.Broker.Stats(),
			"vmagent":        p.VMAgent.Stats(),
			"slack_messages": len(p.Slack.Messages()),
			"sn_incidents":   len(p.ServiceNow.Incidents()),
		})
	})
	mux.HandleFunc("/slack", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, p.Slack.Messages())
	})
	mux.HandleFunc("/servicenow/alerts", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, p.ServiceNow.Alerts())
	})
	mux.HandleFunc("/servicenow/incidents", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, p.ServiceNow.Incidents())
	})
	// Node × time error heatmap, computed through the query frontend. The
	// same grid Grafana's heatmap panel would draw, served as JSON (or as
	// terminal shading with format=render) so logcli and curl get it too.
	mux.Handle("/api/v1/heatmap", o.auth.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		since, step := 30*time.Minute, 2*time.Minute
		if s := r.URL.Query().Get("since"); s != "" {
			d, err := time.ParseDuration(s)
			if err != nil {
				http.Error(w, "since: want a positive duration like 30m", http.StatusBadRequest)
				return
			}
			since = d
		}
		if s := r.URL.Query().Get("step"); s != "" {
			d, err := time.ParseDuration(s)
			if err != nil {
				http.Error(w, "step: want a positive duration like 2m", http.StatusBadRequest)
				return
			}
			step = d
		}
		if err := anomaly.ValidateHeatmapWindow(since, step); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		end := time.Now()
		hm, err := p.ErrorHeatmap(r.Context(), end.Add(-since), end, step)
		if err != nil {
			http.Error(w, err.Error(), stats.HTTPStatus(err))
			return
		}
		if r.URL.Query().Get("format") == "render" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, anomaly.RenderHeatmap(hm))
			return
		}
		writeJSON(w, hm)
	})))
	mux.HandleFunc("/dashboard", func(w http.ResponseWriter, r *http.Request) {
		now := time.Now()
		out, err := p.RenderSinglePane(now.Add(-time.Hour), now, time.Minute)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, out)
	})
	// Dead-letter queue inspection and replay: the operator workflow for
	// poison pills — read the quarantine reasons, fix the producer or
	// parser, then replay the records through the normal path.
	mux.HandleFunc("/debug/dlq", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		topics := p.Broker.DLQTopics()
		if len(topics) == 0 {
			fmt.Fprintln(w, "no quarantined records")
			return
		}
		for _, topic := range topics {
			msgs, err := p.DLQRecords(topic)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			fmt.Fprintf(w, "# %s: %d record(s)\n", topic, len(msgs))
			fmt.Fprint(w, kafka.FormatDLQ(msgs))
		}
	})
	mux.HandleFunc("/debug/dlq/replay", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		topic := r.URL.Query().Get("topic")
		if topic == "" {
			http.Error(w, "topic parameter required", http.StatusBadRequest)
			return
		}
		n, err := p.ReplayDLQ(topic)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, map[string]int{"replayed": n})
	})
	// Mount the component APIs: Loki push/metadata + LogQL queries,
	// Prometheus-style queries, TSDB import, Alertmanager management.
	// Push, query and heatmap mounts share the tenant auth gate.
	for _, path := range []string{
		"/loki/api/v1/push", "/loki/api/v1/labels", "/loki/api/v1/label/", "/loki/api/v1/series",
	} {
		mux.Handle(path, o.auth.Middleware(p.Warehouse.Logs.Handler()))
	}
	mux.Handle("/loki/api/v1/query", o.auth.Middleware(p.Warehouse.LogQL.Handler()))
	mux.Handle("/loki/api/v1/query_range", o.auth.Middleware(p.Warehouse.LogQL.Handler()))
	mux.Handle("/api/v1/query", o.auth.Middleware(p.Warehouse.PromQL.Handler()))
	mux.Handle("/api/v1/query_range", o.auth.Middleware(p.Warehouse.PromQL.Handler()))
	mux.Handle("/api/v1/import/prometheus", o.auth.Middleware(p.Warehouse.Metrics.Handler()))
	mux.Handle("/api/v2/", p.Alertmanager.Handler())

	if o.metrics {
		// Self-monitoring and profiling on the same listener: the
		// pipeline's observability routes (self-metrics, event traces,
		// SLO, active queries, slowlog, templates) and pprof, which
		// registers its routes on the default mux.
		oh := p.ObsHandler()
		mux.Handle("/metrics", oh)
		mux.Handle("/debug/", oh)
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
	}
	return mux
}
