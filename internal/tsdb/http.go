package tsdb

import (
	"encoding/json"
	"net/http"

	"shastamon/internal/promtext"
	"shastamon/internal/tenant"
)

// Handler exposes the VictoriaMetrics-style write and metadata API:
//
//	POST /api/v1/import/prometheus   exposition-format lines (with optional
//	                                 millisecond timestamps) appended to the DB
//	GET  /api/v1/labels
//	GET  /api/v1/label/{name}/values (flat ?name= form)
//
// Query endpoints live on the promql engine (promql.Engine.Handler).
func (db *DB) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/import/prometheus", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		fams, err := promtext.Parse(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		tid := tenant.FromRequest(r)
		accepted, rejected := 0, 0
		for _, m := range promtext.Samples(fams) {
			if m.Timestamp == 0 {
				http.Error(w, "samples must carry millisecond timestamps", http.StatusBadRequest)
				return
			}
			if err := db.AppendMetricTenant(tid, m.Name, m.Labels, m.Timestamp, m.Value); err != nil {
				rejected++
				continue
			}
			accepted++
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]int{"accepted": accepted, "rejected": rejected})
	})
	mux.HandleFunc("/api/v1/labels", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]interface{}{"status": "success", "data": db.idx.LabelNames(tenant.FromRequest(r))})
	})
	mux.HandleFunc("/api/v1/label_values", func(w http.ResponseWriter, r *http.Request) {
		name := r.URL.Query().Get("name")
		if name == "" {
			http.Error(w, "name required", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]interface{}{"status": "success", "data": db.LabelValuesTenant(tenant.FromRequest(r), name)})
	})
	return mux
}
