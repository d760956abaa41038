package logql

import (
	"context"
	"net/http"
	"strconv"
	"time"

	"shastamon/internal/frontend"
)

// Handler exposes the Loki query API over this engine (see
// frontend.API): GET /loki/api/v1/query for metric queries at one
// instant and /loki/api/v1/query_range, numeric times in Unix
// nanoseconds. Log queries on query_range return resultType "streams",
// metric queries "matrix", matching Loki's response envelope.
func (e *Engine) Handler() http.Handler {
	return frontend.API[Expr]{Engine: e, Name: "logql", Prefix: "/loki/api/v1", Unit: time.Nanosecond, Parse: ParseExpr,
		Streams: func(expr Expr) frontend.StreamsFunc {
			le, ok := expr.(*LogExpr)
			if !ok {
				return nil
			}
			return func(ctx context.Context, start, end int64) (any, error) {
				streams, err := e.SelectLogsContext(ctx, le, start, end)
				out := make([]map[string]any, 0, len(streams))
				for _, s := range streams {
					values := make([][2]string, 0, len(s.Entries))
					for _, entry := range s.Entries {
						values = append(values, [2]string{strconv.FormatInt(entry.Timestamp, 10), entry.Line})
					}
					out = append(out, map[string]any{"stream": s.Labels.Map(), "values": values})
				}
				return out, err
			}
		}}
}
