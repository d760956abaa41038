package promql

import (
	"net/http"
	"time"

	"shastamon/internal/frontend"
)

// Handler exposes the Prometheus-compatible query API over this engine
// (see frontend.API): GET /api/v1/query and /api/v1/query_range,
// numeric times in float Unix seconds.
func (e *Engine) Handler() http.Handler {
	return frontend.API[Expr]{Engine: e, Name: "promql", Prefix: "/api/v1", Unit: time.Millisecond, Seconds: true, Parse: Parse}
}
