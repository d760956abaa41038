package logql

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"shastamon/internal/frontend"
	"shastamon/internal/labels"
	"shastamon/internal/loki"
	"shastamon/internal/stats"
)

// Querier is the storage interface the engine reads from; *loki.Store
// implements it. The context carries cancellation and the per-query
// stats.Context down into the chunk scan.
type Querier interface {
	SelectContext(ctx context.Context, sel []*labels.Matcher, mint, maxt int64) ([]loki.SelectedStream, error)
}

// Sample/Vector (instant) and Point/Series/Matrix (range) are the query
// result model, defined once in frontend and shared with promql; T is
// Unix nanoseconds here.
type (
	Sample = frontend.Sample
	Vector = frontend.Vector
	Point  = frontend.Point
	Series = frontend.Series
	Matrix = frontend.Matrix
)

// ResultStream is a log query result: output labels (stream labels plus
// any parser-extracted ones) and matching entries.
type ResultStream struct {
	Labels  labels.Labels
	Entries []loki.Entry
}

// Engine evaluates parsed LogQL expressions against a Querier. Stream
// pipelines fan out over a bounded worker pool (GOMAXPROCS workers by
// default) and result groups are keyed by label fingerprint, so neither
// the per-entry key rendering nor single-goroutine evaluation caps the
// paper's query figures.
type Engine struct {
	frontend.Base
	q Querier
}

// NewEngine returns an engine reading from q with GOMAXPROCS workers.
func NewEngine(q Querier) *Engine { return &Engine{q: q} }

// checkEvery is how many pipeline entries a worker processes between
// context checks, so kills cancel a query mid-stream promptly.
const checkEvery = 256

// groupSet accumulates result streams keyed by label fingerprint, with
// collision lists, in first-seen order. Keying by fingerprint (computed
// once per label-set transition, not per entry) replaces the old
// per-entry lbls.String() map key, which allocated a rendered string for
// every log line.
type groupSet struct {
	byFP  map[labels.Fingerprint][]*ResultStream
	order []*ResultStream
}

func (gs *groupSet) get(fp labels.Fingerprint, lbls labels.Labels) *ResultStream {
	if gs.byFP == nil {
		gs.byFP = map[labels.Fingerprint][]*ResultStream{}
	}
	for _, g := range gs.byFP[fp] {
		if g.Labels.Equal(lbls) {
			return g
		}
	}
	g := &ResultStream{Labels: lbls}
	gs.byFP[fp] = append(gs.byFP[fp], g)
	gs.order = append(gs.order, g)
	return g
}

// processLogStream runs the pipeline over one selected stream, grouping
// surviving entries by their post-pipeline label sets. The group lookup
// happens only when the pipeline's output labels change from one entry to
// the next; runs of identical labels (the common case — line filters and
// parsers over one stream emit long runs) reuse the previous group.
func processLogStream(ctx context.Context, stages []Stage, s loki.SelectedStream) []*ResultStream {
	var gs groupSet
	var cur *ResultStream
	var curLbls labels.Labels
	for n, entry := range s.Entries {
		if n%checkEvery == 0 && ctx.Err() != nil {
			return nil
		}
		line, lbls, ok := runPipeline(stages, entry.Line, s.Labels)
		if !ok {
			continue
		}
		if cur == nil || !lbls.Equal(curLbls) {
			curLbls = lbls
			cur = gs.get(lbls.Fingerprint(), lbls)
		}
		cur.Entries = append(cur.Entries, loki.Entry{Timestamp: entry.Timestamp, Line: line})
	}
	return gs.order
}

// SelectLogs runs a log query over [start, end] (ns, inclusive). Entries
// are regrouped by their post-pipeline label sets. Input streams are
// processed in parallel and merged in stream order, so results are
// identical to sequential evaluation.
func (e *Engine) SelectLogs(expr *LogExpr, start, end int64) ([]ResultStream, error) {
	return e.SelectLogsContext(context.Background(), expr, start, end)
}

// SelectLogsContext is SelectLogs with cancellation and per-query
// statistics carried by ctx.
func (e *Engine) SelectLogsContext(ctx context.Context, expr *LogExpr, start, end int64) ([]ResultStream, error) {
	sc := stats.FromContext(ctx)
	sc.MarkExec()
	streams, err := e.q.SelectContext(ctx, expr.Selector, start, end)
	if err != nil {
		return nil, err
	}
	pipeStart := time.Now()
	perStream := make([][]*ResultStream, len(streams))
	e.Parallel(len(streams), func(i int) {
		perStream[i] = processLogStream(ctx, expr.Stages, streams[i])
	})
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	var merged groupSet
	for _, locals := range perStream {
		for _, lg := range locals {
			g := merged.get(lg.Labels.Fingerprint(), lg.Labels)
			g.Entries = append(g.Entries, lg.Entries...)
		}
	}
	out := make([]ResultStream, 0, len(merged.order))
	entries := 0
	for _, g := range merged.order {
		sort.SliceStable(g.Entries, func(i, j int) bool { return g.Entries[i].Timestamp < g.Entries[j].Timestamp })
		entries += len(g.Entries)
		out = append(out, *g)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Labels.String() < out[j].Labels.String() })
	sc.AddEntriesReturned(int64(entries))
	sc.AddSpan("logql.pipeline", pipeStart, time.Now(),
		fmt.Sprintf("%d streams -> %d groups", len(streams), len(out)))
	return out, nil
}

// Instant evaluates a metric expression at a single timestamp.
func (e *Engine) Instant(expr Expr, ts int64) (Vector, error) {
	return e.InstantContext(context.Background(), expr, ts)
}

// InstantContext is Instant with cancellation and per-query statistics
// carried by ctx.
func (e *Engine) InstantContext(ctx context.Context, expr Expr, ts int64) (Vector, error) {
	stats.FromContext(ctx).MarkExec()
	return lang.Eval(ctx, expr, ts, e.evalLeaf)
}

// evalLeaf evaluates LogQL's leaves under the shared metric layer.
func (e *Engine) evalLeaf(ctx context.Context, expr Expr, ts int64) (Vector, error) {
	switch ex := expr.(type) {
	case *RangeAggExpr:
		return e.evalRangeAgg(ctx, ex, ts)
	case *LogExpr:
		return nil, fmt.Errorf("logql: %q is a log query; use SelectLogs", ex)
	}
	return nil, fmt.Errorf("logql: unsupported expression %T", expr)
}

// Range evaluates a metric expression over [start, end] at the given step,
// producing one series per distinct label set.
func (e *Engine) Range(expr Expr, start, end int64, step time.Duration) (Matrix, error) {
	return e.RangeContext(context.Background(), expr, start, end, step)
}

// RangeContext is Range with cancellation and per-query statistics
// carried by ctx. With a frontend attached (SetFrontend) the range is
// split at interval boundaries, partially served from the results
// cache and fanned across store shards where the expression permits;
// without one it evaluates monolithically as a single split.
func (e *Engine) RangeContext(ctx context.Context, expr Expr, start, end int64, step time.Duration) (Matrix, error) {
	if step <= 0 {
		return nil, fmt.Errorf("logql: step must be positive")
	}
	if _, isLog := expr.(*LogExpr); !isLog && e.Frontend() != nil {
		return e.rangeViaFrontend(ctx, expr, start, end, step)
	}
	sc := stats.FromContext(ctx)
	sc.MarkExec()
	sc.AddSplit()
	return frontend.Range(ctx, start, end, int64(step), func(ctx context.Context, ts int64) (Vector, error) {
		return e.InstantContext(ctx, expr, ts)
	})
}

// rangeAcc accumulates one output group of a range aggregation.
type rangeAcc struct {
	labels labels.Labels
	count  float64
	bytes  float64
	sum    float64
	min    float64
	max    float64
	vals   float64 // count of unwrapped values
}

// rangeAccSet groups rangeAccs by label fingerprint in first-seen order.
type rangeAccSet struct {
	byFP  map[labels.Fingerprint][]*rangeAcc
	order []*rangeAcc
}

func (as *rangeAccSet) get(fp labels.Fingerprint, lbls labels.Labels) *rangeAcc {
	if as.byFP == nil {
		as.byFP = map[labels.Fingerprint][]*rangeAcc{}
	}
	for _, g := range as.byFP[fp] {
		if g.labels.Equal(lbls) {
			return g
		}
	}
	g := &rangeAcc{labels: lbls, min: math.NaN(), max: math.NaN()}
	as.byFP[fp] = append(as.byFP[fp], g)
	as.order = append(as.order, g)
	return g
}

// accumulateRangeStream folds one selected stream into per-group
// accumulators, returning them plus the count of pipeline-surviving
// entries (absent_over_time needs the total even when unwrap fails).
// As in processLogStream, the group key is recomputed only when the
// pipeline's output labels change between consecutive entries.
func accumulateRangeStream(ctx context.Context, ex *RangeAggExpr, s loki.SelectedStream) ([]*rangeAcc, int) {
	var as rangeAccSet
	var g *rangeAcc
	var curLbls labels.Labels
	total := 0
	for n, entry := range s.Entries {
		if n%checkEvery == 0 && ctx.Err() != nil {
			return nil, 0
		}
		line, lbls, ok := runPipeline(ex.Log.Stages, entry.Line, s.Labels)
		if !ok {
			continue
		}
		total++
		var val float64
		hasVal := false
		if ex.Unwrap != "" {
			v, err := strconv.ParseFloat(lbls.Get(ex.Unwrap), 64)
			if err != nil {
				continue // skip entries whose unwrap label is not numeric
			}
			val, hasVal = v, true
		}
		if g == nil || !lbls.Equal(curLbls) {
			curLbls = lbls
			grouped := lbls
			if ex.Unwrap != "" {
				grouped = lbls.Without(ex.Unwrap)
			}
			g = as.get(grouped.Fingerprint(), grouped)
		}
		g.count++
		g.bytes += float64(len(line))
		if hasVal {
			g.min = frontend.Min(g.min, val)
			g.max = frontend.Max(g.max, val)
			g.sum += val
			g.vals++
		}
	}
	return as.order, total
}

// merge folds other into g.
func (g *rangeAcc) merge(other *rangeAcc) {
	g.count += other.count
	g.bytes += other.bytes
	g.min = frontend.Min(g.min, other.min)
	g.max = frontend.Max(g.max, other.max)
	g.sum += other.sum
	g.vals += other.vals
}

func (e *Engine) evalRangeAgg(ctx context.Context, ex *RangeAggExpr, ts int64) (Vector, error) {
	mint := ts - int64(ex.Interval) + 1
	maxt := ts
	streams, err := e.q.SelectContext(ctx, ex.Log.Selector, mint, maxt)
	if err != nil {
		return nil, err
	}
	accStart := time.Now()
	perStream := make([][]*rangeAcc, len(streams))
	counts := make([]int, len(streams))
	e.Parallel(len(streams), func(i int) {
		perStream[i], counts[i] = accumulateRangeStream(ctx, ex, streams[i])
	})
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	sc := stats.FromContext(ctx)
	sc.AddSpan("logql.accumulate", accStart, time.Now(),
		fmt.Sprintf("%s over %d streams", ex.Op, len(streams)))
	var merged rangeAccSet
	total := 0
	for i, locals := range perStream {
		total += counts[i]
		for _, lg := range locals {
			merged.get(lg.labels.Fingerprint(), lg.labels).merge(lg)
		}
	}
	if ex.Op == OpAbsentOverTime {
		if total > 0 {
			return nil, nil
		}
		return frontend.Absent(ex.Log.Selector, ts), nil
	}
	secs := ex.Interval.Seconds()
	groups := merged.order
	sort.SliceStable(groups, func(i, j int) bool { return groups[i].labels.String() < groups[j].labels.String() })
	out := make(Vector, 0, len(groups))
	for _, g := range groups {
		var v float64
		switch ex.Op {
		case OpCountOverTime:
			v = g.count
		case OpRate:
			v = g.count / secs
		case OpBytesOverTime:
			v = g.bytes
		case OpBytesRate:
			v = g.bytes / secs
		case OpSumOverTime:
			if g.vals == 0 {
				continue
			}
			v = g.sum
		case OpAvgOverTime:
			if g.vals == 0 {
				continue
			}
			v = g.sum / g.vals
		case OpMaxOverTime:
			if g.vals == 0 {
				continue
			}
			v = g.max
		case OpMinOverTime:
			if g.vals == 0 {
				continue
			}
			v = g.min
		default:
			return nil, fmt.Errorf("logql: unsupported range op %q", ex.Op)
		}
		out = append(out, Sample{Labels: g.labels, T: ts, V: v})
	}
	return out, nil
}

// QueryLogs parses and runs a log query.
func (e *Engine) QueryLogs(q string, start, end int64) ([]ResultStream, error) {
	return e.QueryLogsContext(context.Background(), q, start, end)
}

// QueryLogsContext parses and runs a log query under ctx.
func (e *Engine) QueryLogsContext(ctx context.Context, q string, start, end int64) ([]ResultStream, error) {
	expr, err := ParseLogExpr(q)
	if err != nil {
		return nil, err
	}
	return e.SelectLogsContext(ctx, expr, start, end)
}

// QueryInstant parses and runs a metric query at ts.
func (e *Engine) QueryInstant(q string, ts int64) (Vector, error) {
	return e.QueryInstantContext(context.Background(), q, ts)
}

// QueryInstantContext parses and runs a metric query at ts under ctx.
func (e *Engine) QueryInstantContext(ctx context.Context, q string, ts int64) (Vector, error) {
	expr, err := ParseMetricExpr(q)
	if err != nil {
		return nil, err
	}
	vec, err := e.InstantContext(ctx, expr, ts)
	if err != nil {
		return nil, err
	}
	stats.FromContext(ctx).AddEntriesReturned(int64(len(vec)))
	return vec, nil
}

// QueryRange parses and runs a metric query over a range.
func (e *Engine) QueryRange(q string, start, end int64, step time.Duration) (Matrix, error) {
	return e.QueryRangeContext(context.Background(), q, start, end, step)
}

// QueryRangeContext parses and runs a metric query over a range under ctx.
func (e *Engine) QueryRangeContext(ctx context.Context, q string, start, end int64, step time.Duration) (Matrix, error) {
	expr, err := ParseMetricExpr(q)
	if err != nil {
		return nil, err
	}
	m, err := e.RangeContext(ctx, expr, start, end, step)
	if err != nil {
		return nil, err
	}
	stats.FromContext(ctx).AddEntriesReturned(int64(m.NumPoints()))
	return m, nil
}
