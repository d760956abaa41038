package promql

import (
	"context"
	"time"

	"shastamon/internal/frontend"
)

// rangeViaFrontend hands the range query to the frontend, which
// evaluates the splits the results cache cannot serve with
// frontend.Range. PromQL sub-queries are never shard-fanned: the TSDB's
// series striping is an implementation detail its selector layer does
// not expose.
func (e *Engine) rangeViaFrontend(ctx context.Context, expr Expr, start, end int64, step time.Duration) (Matrix, error) {
	return e.Frontend().QueryRange(ctx, frontend.Request{
		Engine:   "promql",
		Query:    expr.String(),
		Start:    start,
		End:      end,
		Step:     step.Milliseconds(),
		Unit:     time.Millisecond,
		Lookback: frontend.Lookback(expr).Milliseconds(),
		Eval: func(ctx context.Context, s, en int64, _ int) (Matrix, error) {
			return frontend.Range(ctx, s, en, step.Milliseconds(), func(ctx context.Context, ts int64) (Vector, error) {
				return e.InstantContext(ctx, expr, ts)
			})
		},
	})
}
