package promql

import (
	"context"
	"time"

	"shastamon/internal/frontend"
)

// SetFrontend routes range queries through a query frontend (splitting,
// results caching, admission control). PromQL sub-queries are never
// shard-fanned: the TSDB's series striping is an implementation detail
// its selector layer does not expose. Call during setup, not
// concurrently with queries.
func (e *Engine) SetFrontend(f *frontend.Frontend) { e.frontend = f }

// Frontend returns the attached query frontend, nil when unset.
func (e *Engine) Frontend() *frontend.Frontend { return e.frontend }

// maxLookbackMS is the furthest any sub-evaluation of expr reads before
// its step timestamp, in milliseconds: range windows for range
// functions, the staleness lookback for instant selectors.
func (e *Engine) maxLookbackMS(expr Expr) int64 {
	switch ex := expr.(type) {
	case *SelectorExpr, *AbsentExpr:
		return e.lookback.Milliseconds()
	case *RangeFnExpr:
		return ex.Range.Milliseconds()
	case *AggExpr:
		return e.maxLookbackMS(ex.Inner)
	case *BinExpr:
		l, r := e.maxLookbackMS(ex.LHS), e.maxLookbackMS(ex.RHS)
		if r > l {
			return r
		}
		return l
	}
	return 0
}

// rangeViaFrontend hands the range query to the frontend, which calls
// back into rangeDirect for the splits the results cache cannot serve.
func (e *Engine) rangeViaFrontend(ctx context.Context, expr Expr, start, end int64, step time.Duration) (Matrix, error) {
	return e.frontend.QueryRange(ctx, frontend.Request{
		Engine:   "promql",
		Query:    expr.String(),
		Start:    start,
		End:      end,
		Step:     step.Milliseconds(),
		Unit:     time.Millisecond,
		Lookback: e.maxLookbackMS(expr),
		Eval: func(ctx context.Context, s, en int64, _ int) (Matrix, error) {
			return e.rangeDirect(ctx, expr, s, en, step)
		},
	})
}
