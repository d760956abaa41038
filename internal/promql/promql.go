// Package promql implements the subset of PromQL that the paper's metric
// alerting path needs: instant vector selectors with label matchers, range
// functions (rate, increase, delta, *_over_time), absent(), vector
// aggregations with by/without grouping, scalar arithmetic and threshold
// comparisons. vmalert evaluates rule expressions written in this subset
// against the tsdb package.
package promql

import (
	"context"
	"fmt"
	"math"
	"time"

	"shastamon/internal/frontend"
	"shastamon/internal/labels"
	"shastamon/internal/stats"
	"shastamon/internal/tsdb"
)

// DefaultLookback is the instant-vector staleness window.
const DefaultLookback = 5 * time.Minute

// Sample/Vector (instant) and Point/Series/Matrix (range) are the query
// result model, defined once in frontend and shared with logql; T is
// milliseconds here.
type (
	Sample = frontend.Sample
	Vector = frontend.Vector
	Point  = frontend.Point
	Series = frontend.Series
	Matrix = frontend.Matrix
)

// ---- AST ----

// Expr is a parsed PromQL expression: a number, aggregation or binary
// node of the shared frontend grammar, or one of the leaves below.
type Expr = frontend.Expr

// SelectorExpr is an instant vector selector: name{matchers}.
type SelectorExpr struct {
	Name     string
	Matchers labels.Selector
}

func (s *SelectorExpr) String() string {
	if len(s.Matchers) == 0 {
		return s.Name
	}
	return s.Name + frontend.FormatMatchers(s.Matchers)
}

// Lookback is the instant-vector staleness window.
func (s *SelectorExpr) Lookback() time.Duration { return DefaultLookback }

// allMatchers includes the implicit __name__ matcher.
func (s *SelectorExpr) allMatchers() ([]*labels.Matcher, error) {
	out := make([]*labels.Matcher, 0, len(s.Matchers)+1)
	if s.Name != "" {
		m, err := labels.NewMatcher(labels.MatchEqual, tsdb.MetricNameLabel, s.Name)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return append(out, s.Matchers...), nil
}

// RangeFnExpr is fn(selector[dur]).
type RangeFnExpr struct {
	Fn       string
	Selector *SelectorExpr
	Range    time.Duration
}

func (r *RangeFnExpr) String() string {
	return fmt.Sprintf("%s(%s[%s])", r.Fn, r.Selector, frontend.FormatDuration(r.Range))
}

// Lookback is the range window.
func (r *RangeFnExpr) Lookback() time.Duration { return r.Range }

// AbsentExpr is absent(selector).
type AbsentExpr struct{ Selector *SelectorExpr }

func (a *AbsentExpr) String() string { return fmt.Sprintf("absent(%s)", a.Selector) }

// Lookback is the staleness window of the selector it tests.
func (a *AbsentExpr) Lookback() time.Duration { return DefaultLookback }

// ---- parser ----

var rangeFns = map[string]bool{
	"rate": true, "increase": true, "delta": true, "idelta": true,
	"avg_over_time": true, "sum_over_time": true, "min_over_time": true,
	"max_over_time": true, "count_over_time": true, "last_over_time": true,
}

// lang is PromQL's part of the shared grammar: its leaves are
// selectors, range functions and absent, and arithmetic and grouping
// drop the metric name.
var lang = &frontend.Language{Name: "promql", Drop: tsdb.MetricNameLabel, LooseMatchers: true, Leaf: parseLeaf}

// Parse parses a PromQL expression in the supported subset.
func Parse(input string) (Expr, error) { return lang.Parse(input, (*frontend.Parser).Expr) }

// parseLeaf parses fn(selector[dur]), absent(selector) or a selector.
func parseLeaf(p *frontend.Parser) (Expr, error) {
	t := p.Peek()
	if t.Kind != frontend.TokIdent {
		return nil, p.Errf(t, "unexpected %q", t.Text)
	}
	if !rangeFns[t.Text] && t.Text != "absent" {
		return parseSelector(p)
	}
	p.Next()
	if err := p.ExpectSym("("); err != nil {
		return nil, err
	}
	sel, err := parseSelector(p)
	if err != nil {
		return nil, err
	}
	var leaf Expr = &AbsentExpr{Selector: sel}
	if t.Text != "absent" {
		d, err := p.Range(false)
		if err != nil {
			return nil, err
		}
		leaf = &RangeFnExpr{Fn: t.Text, Selector: sel, Range: d}
	}
	return leaf, p.ExpectSym(")")
}

// parseSelector parses name, name{matchers} or {matchers}.
func parseSelector(p *frontend.Parser) (*SelectorExpr, error) {
	sel := &SelectorExpr{}
	if t := p.Peek(); t.Kind == frontend.TokIdent {
		sel.Name = t.Text
		p.Next()
	}
	if p.Peek().Is("{") {
		ms, err := p.Matchers()
		if err != nil {
			return nil, err
		}
		sel.Matchers = ms
	}
	if sel.Name == "" && len(sel.Matchers) == 0 {
		return nil, p.Errf(p.Peek(), "empty selector")
	}
	return sel, nil
}

// ---- evaluation ----

// Engine evaluates expressions against a tsdb.DB. Range-function
// evaluation fans the selected series out over a bounded worker pool: a
// fleet-wide rate() touches one series per node, and each series folds
// independently.
type Engine struct {
	frontend.Base
	db *tsdb.DB
}

// NewEngine returns an engine with the DefaultLookback staleness window
// and GOMAXPROCS workers.
func NewEngine(db *tsdb.DB) *Engine {
	return &Engine{db: db}
}

// Instant evaluates the expression at ts (Unix ms).
func (e *Engine) Instant(expr Expr, ts int64) (Vector, error) {
	return e.InstantContext(context.Background(), expr, ts)
}

// InstantContext is Instant with cancellation and per-query statistics
// carried by ctx.
func (e *Engine) InstantContext(ctx context.Context, expr Expr, ts int64) (Vector, error) {
	// Checked here, once, for every query: a bare selector reads one
	// sample per series and would otherwise never look at its context.
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	stats.FromContext(ctx).MarkExec()
	return lang.Eval(ctx, expr, ts, e.evalLeaf)
}

// evalLeaf evaluates PromQL's leaves under the shared metric layer.
func (e *Engine) evalLeaf(ctx context.Context, expr Expr, ts int64) (Vector, error) {
	switch ex := expr.(type) {
	case *SelectorExpr:
		ms, err := ex.allMatchers()
		if err != nil {
			return nil, err
		}
		data := e.db.LatestBeforeContext(ctx, ms, ts, DefaultLookback.Milliseconds())
		out := make(Vector, 0, len(data))
		for _, sd := range data {
			out = append(out, Sample{Labels: sd.Labels, T: ts, V: sd.Samples[0].V})
		}
		return out, nil
	case *RangeFnExpr:
		return e.evalRangeFn(ctx, ex, ts)
	case *AbsentExpr:
		ms, err := ex.Selector.allMatchers()
		if err != nil {
			return nil, err
		}
		data := e.db.LatestBeforeContext(ctx, ms, ts, DefaultLookback.Milliseconds())
		if len(data) > 0 {
			return nil, nil
		}
		return frontend.Absent(ex.Selector.Matchers, ts), nil
	}
	return nil, fmt.Errorf("promql: unsupported expression %T", expr)
}

// Range evaluates over [start, end] ms stepping by step.
func (e *Engine) Range(expr Expr, start, end int64, step time.Duration) (Matrix, error) {
	return e.RangeContext(context.Background(), expr, start, end, step)
}

// RangeContext is Range with cancellation and per-query statistics
// carried by ctx. With a frontend attached (SetFrontend) the range is
// split at interval boundaries and partially served from the results
// cache; without one it evaluates monolithically as a single split.
func (e *Engine) RangeContext(ctx context.Context, expr Expr, start, end int64, step time.Duration) (Matrix, error) {
	if step.Milliseconds() <= 0 {
		return nil, fmt.Errorf("promql: step must be at least 1ms")
	}
	if e.Frontend() != nil {
		return e.rangeViaFrontend(ctx, expr, start, end, step)
	}
	sc := stats.FromContext(ctx)
	sc.MarkExec()
	sc.AddSplit()
	return frontend.Range(ctx, start, end, step.Milliseconds(), func(ctx context.Context, ts int64) (Vector, error) {
		return e.InstantContext(ctx, expr, ts)
	})
}

func (e *Engine) evalRangeFn(ctx context.Context, ex *RangeFnExpr, ts int64) (Vector, error) {
	ms, err := ex.Selector.allMatchers()
	if err != nil {
		return nil, err
	}
	mint := ts - ex.Range.Milliseconds() + 1
	data, err := e.db.SelectContext(ctx, ms, mint, ts)
	if err != nil {
		return nil, err
	}
	type result struct {
		v  float64
		ok bool
	}
	results := make([]result, len(data))
	e.Parallel(len(data), func(i int) {
		if len(data[i].Samples) == 0 {
			return
		}
		results[i].v, results[i].ok = applyRangeFn(ex.Fn, data[i].Samples, ex.Range)
	})
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	out := make(Vector, 0, len(data))
	for i, sd := range data {
		if !results[i].ok {
			continue
		}
		out = append(out, Sample{Labels: dropName(sd.Labels), T: ts, V: results[i].v})
	}
	return out, nil
}

func applyRangeFn(fn string, s []tsdb.Sample, rng time.Duration) (float64, bool) {
	switch fn {
	case "count_over_time":
		return float64(len(s)), true
	case "last_over_time":
		return s[len(s)-1].V, true
	case "sum_over_time", "avg_over_time", "min_over_time", "max_over_time":
		sum, minV, maxV := 0.0, math.NaN(), math.NaN()
		for _, p := range s {
			sum += p.V
			minV = frontend.Min(minV, p.V)
			maxV = frontend.Max(maxV, p.V)
		}
		switch fn {
		case "sum_over_time":
			return sum, true
		case "avg_over_time":
			return sum / float64(len(s)), true
		case "min_over_time":
			return minV, true
		default:
			return maxV, true
		}
	case "delta", "idelta":
		if len(s) < 2 {
			return 0, false
		}
		if fn == "idelta" {
			return s[len(s)-1].V - s[len(s)-2].V, true
		}
		return s[len(s)-1].V - s[0].V, true
	case "rate", "increase":
		if len(s) < 2 {
			return 0, false
		}
		// Counter semantics with reset detection.
		inc := 0.0
		prev := s[0].V
		for _, p := range s[1:] {
			if p.V >= prev {
				inc += p.V - prev
			} else {
				inc += p.V // reset: counter restarted from 0
			}
			prev = p.V
		}
		if fn == "increase" {
			return inc, true
		}
		secs := float64(s[len(s)-1].T-s[0].T) / 1000
		if secs <= 0 {
			return 0, false
		}
		return inc / secs, true
	}
	return 0, false
}

func dropName(ls labels.Labels) labels.Labels { return ls.Without(tsdb.MetricNameLabel) }

// Query parses and evaluates an instant query.
func (e *Engine) Query(q string, ts int64) (Vector, error) {
	return e.QueryContext(context.Background(), q, ts)
}

// QueryContext parses and evaluates an instant query under ctx.
func (e *Engine) QueryContext(ctx context.Context, q string, ts int64) (Vector, error) {
	expr, err := Parse(q)
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

// QueryRange parses and evaluates a range query.
func (e *Engine) QueryRange(q string, start, end int64, step time.Duration) (Matrix, error) {
	return e.QueryRangeContext(context.Background(), q, start, end, step)
}

// QueryRangeContext parses and evaluates a range query under ctx.
func (e *Engine) QueryRangeContext(ctx context.Context, q string, start, end int64, step time.Duration) (Matrix, error) {
	expr, err := Parse(q)
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
