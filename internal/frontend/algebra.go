package frontend

import (
	"context"
	"fmt"
	"math"
	"sort"

	"shastamon/internal/labels"
)

// The vector algebra both query languages share. Each engine parses its
// own language and evaluates its own leaves (log selection and range
// aggregation for LogQL; selectors and range functions for PromQL); every
// operator above the leaves is one of the functions below, so the two
// languages agree on output order, grouping and NaN handling by
// construction.

// seriesSet collects points into series keyed by label string.
type seriesSet struct {
	byKey map[string]*Series
	order []string
}

func (ss *seriesSet) get(ls labels.Labels) *Series {
	key := ls.String()
	sr, ok := ss.byKey[key]
	if !ok {
		if ss.byKey == nil {
			ss.byKey = map[string]*Series{}
		}
		sr = &Series{Labels: ls}
		ss.byKey[key] = sr
		ss.order = append(ss.order, key)
	}
	return sr
}

// matrix returns the series ordered by label string.
func (ss *seriesSet) matrix() Matrix {
	sort.Strings(ss.order)
	m := make(Matrix, 0, len(ss.order))
	for _, key := range ss.order {
		m = append(m, *ss.byKey[key])
	}
	return m
}

// Range is the monolithic range evaluation: one instant evaluation per
// step of [start, end], with step in the engine's unit, collected into
// series ordered by label string. It stops at the first failed step and
// sizes nothing by the step count, which comes from the client. Engines
// run it directly and, per split, from a Request's Eval; split results
// concatenate to exactly this loop's output.
func Range(ctx context.Context, start, end, step int64, instant func(ctx context.Context, ts int64) (Vector, error)) (Matrix, error) {
	var ss seriesSet
	for ts := start; ts <= end; ts += step {
		vec, err := instant(ctx, ts)
		if err != nil {
			return nil, err
		}
		for _, s := range vec {
			sr := ss.get(s.Labels)
			sr.Points = append(sr.Points, Point{T: ts, V: s.V})
		}
		if uint64(end-ts) < uint64(step) {
			break // the next step passes end, or would overflow int64
		}
	}
	return ss.matrix(), nil
}

// Min and Max fold v into a running minimum or maximum with Prometheus'
// NaN rule: a NaN accumulator is replaced by the next value and a NaN
// value never replaces a number, so the result is NaN only when every
// input is NaN, whatever the input order. Start an accumulator at NaN.
func Min(acc, v float64) float64 {
	if v < acc || math.IsNaN(acc) {
		return v
	}
	return acc
}

// Max is Min's counterpart; see Min.
func Max(acc, v float64) float64 {
	if v > acc || math.IsNaN(acc) {
		return v
	}
	return acc
}

// Grouping returns the label function of a by (without=false) or
// without clause over names, applied after dropping drop. With no names,
// by groups everything into one empty label set.
func Grouping(names []string, without bool, drop ...string) func(labels.Labels) labels.Labels {
	return func(ls labels.Labels) labels.Labels {
		if len(drop) > 0 {
			ls = ls.Without(drop...)
		}
		if without {
			return ls.Without(names...)
		}
		if len(names) == 0 {
			return nil
		}
		return ls.Keep(names...)
	}
}

// Aggregate applies a vector aggregation (sum, min, max, avg, count, topk,
// bottomk) to in per group. Groups come out in label-string order and
// their samples carry the group labels at ts; topk/bottomk instead keep
// the k best samples of each group whole, best first, ties in input order
// and NaN ranked below every number.
func Aggregate(op string, k int, in Vector, ts int64, group func(labels.Labels) labels.Labels) (Vector, error) {
	type acc struct {
		labels               labels.Labels
		sum, min, max, count float64
		members              Vector
	}
	groups := map[string]*acc{}
	var order []string
	for _, s := range in {
		gl := group(s.Labels)
		key := gl.String()
		g, ok := groups[key]
		if !ok {
			g = &acc{labels: gl, min: math.NaN(), max: math.NaN()}
			groups[key] = g
			order = append(order, key)
		}
		g.sum += s.V
		g.count++
		g.min = Min(g.min, s.V)
		g.max = Max(g.max, s.V)
		if op == "topk" || op == "bottomk" {
			g.members = append(g.members, s)
		}
	}
	sort.Strings(order)
	out := make(Vector, 0, len(order))
	for _, key := range order {
		g := groups[key]
		var v float64
		switch op {
		case "sum":
			v = g.sum
		case "min":
			v = g.min
		case "max":
			v = g.max
		case "avg":
			v = g.sum / g.count
		case "count":
			v = g.count
		case "topk", "bottomk":
			ss := g.members
			sort.SliceStable(ss, func(i, j int) bool {
				a, b := ss[i].V, ss[j].V
				if op == "bottomk" {
					a, b = -a, -b
				}
				return a > b || (math.IsNaN(b) && !math.IsNaN(a))
			})
			out = append(out, ss[:min(k, len(ss))]...)
			continue
		default:
			return nil, fmt.Errorf("frontend: unsupported aggregation %q", op)
		}
		out = append(out, Sample{Labels: g.labels, T: ts, V: v})
	}
	return out, nil
}

// Compare is the comparison half of the operator table: whether a op b
// holds, and ok=false when op is not a comparison.
func Compare(op string, a, b float64) (holds, ok bool) {
	switch op {
	case ">":
		return a > b, true
	case ">=":
		return a >= b, true
	case "<":
		return a < b, true
	case "<=":
		return a <= b, true
	case "==":
		return a == b, true
	case "!=":
		return a != b, true
	}
	return false, false
}

// IsComparison reports whether op filters rather than computes.
func IsComparison(op string) bool {
	_, ok := Compare(op, 0, 0)
	return ok
}

// ScalarOp applies op between every sample of vec and the scalar s, on
// the right or, with scalarLeft, on the left, reusing vec's backing
// array. A comparison filters: a sample stays, unchanged, where it holds.
// Arithmetic (+ - * /) replaces the value and passes the labels through
// relabel, when non-nil.
func ScalarOp(op string, vec Vector, s float64, scalarLeft bool, relabel func(labels.Labels) labels.Labels) (Vector, error) {
	out := vec[:0]
	for _, smp := range vec {
		a, b := smp.V, s
		if scalarLeft {
			a, b = s, smp.V
		}
		if holds, ok := Compare(op, a, b); ok {
			if holds {
				out = append(out, smp)
			}
			continue
		}
		switch op {
		case "+":
			smp.V = a + b
		case "-":
			smp.V = a - b
		case "*":
			smp.V = a * b
		case "/":
			smp.V = a / b
		default:
			return nil, fmt.Errorf("frontend: unsupported operator %q", op)
		}
		if relabel != nil {
			smp.Labels = relabel(smp.Labels)
		}
		out = append(out, smp)
	}
	return out, nil
}

// Absent is what absent() and absent_over_time() return when nothing
// matched: one sample of value 1 labelled with the selector's equality
// matchers.
func Absent(sel []*labels.Matcher, ts int64) Vector {
	b := labels.NewBuilder(nil)
	for _, m := range sel {
		if m.Type == labels.MatchEqual {
			b.Set(m.Name, m.Value)
		}
	}
	return Vector{{Labels: b.Labels(), T: ts, V: 1}}
}
