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
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
	"unicode"

	"shastamon/internal/frontend"
	"shastamon/internal/labels"
	"shastamon/internal/parallel"
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

// Expr is a parsed PromQL expression.
type Expr interface{ String() string }

// NumberExpr is a scalar literal.
type NumberExpr float64

func (n NumberExpr) String() string { return strconv.FormatFloat(float64(n), 'g', -1, 64) }

// SelectorExpr is an instant vector selector: name{matchers}.
type SelectorExpr struct {
	Name     string
	Matchers labels.Selector
}

func (s *SelectorExpr) String() string {
	if len(s.Matchers) == 0 {
		return s.Name
	}
	return s.Name + s.Matchers.String()
}

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
	return fmt.Sprintf("%s(%s[%s])", r.Fn, r.Selector, r.Range)
}

// AbsentExpr is absent(selector).
type AbsentExpr struct{ Selector *SelectorExpr }

func (a *AbsentExpr) String() string { return fmt.Sprintf("absent(%s)", a.Selector) }

// AggExpr is agg [by/without (...)] (expr).
type AggExpr struct {
	Op       string
	Inner    Expr
	Grouping []string
	Without  bool
}

func (a *AggExpr) String() string {
	g := ""
	if len(a.Grouping) > 0 || a.Without {
		kw := "by"
		if a.Without {
			kw = "without"
		}
		g = fmt.Sprintf(" %s (%s)", kw, strings.Join(a.Grouping, ", "))
	}
	return fmt.Sprintf("%s(%s)%s", a.Op, a.Inner, g)
}

// BinExpr is a binary operation; at least one side is scalar for
// arithmetic, and comparisons require a scalar RHS or LHS.
type BinExpr struct {
	Op       string // + - * / > >= < <= == !=
	LHS, RHS Expr
}

func (b *BinExpr) String() string { return fmt.Sprintf("%s %s %s", b.LHS, b.Op, b.RHS) }

// ---- lexer ----

type lexToken struct {
	kind string // ident, number, string, duration, op, punct, eof
	text string
	pos  int
}

func lexPromQL(s string) ([]lexToken, error) {
	var toks []lexToken
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case unicode.IsSpace(rune(c)):
			i++
		case c == '(' || c == ')' || c == '{' || c == '}' || c == '[' || c == ']' || c == ',':
			toks = append(toks, lexToken{"punct", string(c), i})
			i++
		case c == '+' || c == '-' || c == '*' || c == '/':
			toks = append(toks, lexToken{"op", string(c), i})
			i++
		case c == '>' || c == '<':
			op := string(c)
			if i+1 < len(s) && s[i+1] == '=' {
				op += "="
				i++
			}
			toks = append(toks, lexToken{"op", op, i})
			i++
		case c == '=':
			if i+1 < len(s) && s[i+1] == '=' {
				toks = append(toks, lexToken{"op", "==", i})
				i += 2
			} else if i+1 < len(s) && s[i+1] == '~' {
				toks = append(toks, lexToken{"op", "=~", i})
				i += 2
			} else {
				toks = append(toks, lexToken{"op", "=", i})
				i++
			}
		case c == '!':
			if i+1 < len(s) && (s[i+1] == '=' || s[i+1] == '~') {
				toks = append(toks, lexToken{"op", s[i : i+2], i})
				i += 2
			} else {
				return nil, fmt.Errorf("promql: unexpected '!' at %d", i)
			}
		case c == '"' || c == '\'':
			quote := c
			j := i + 1
			var b strings.Builder
			for j < len(s) && s[j] != quote {
				if s[j] == '\\' && j+1 < len(s) {
					j++
				}
				b.WriteByte(s[j])
				j++
			}
			if j >= len(s) {
				return nil, fmt.Errorf("promql: unterminated string at %d", i)
			}
			toks = append(toks, lexToken{"string", b.String(), i})
			i = j + 1
		case c >= '0' && c <= '9' || c == '.':
			j := i
			for j < len(s) && (s[j] >= '0' && s[j] <= '9' || s[j] == '.') {
				j++
			}
			if j < len(s) && isDurUnit(s[j]) {
				for j < len(s) && (s[j] >= '0' && s[j] <= '9' || s[j] == '.' || isDurUnit(s[j])) {
					j++
				}
				toks = append(toks, lexToken{"duration", s[i:j], i})
			} else {
				toks = append(toks, lexToken{"number", s[i:j], i})
			}
			i = j
		case c == '_' || unicode.IsLetter(rune(c)) || c == ':':
			j := i
			for j < len(s) && (s[j] == '_' || s[j] == ':' || unicode.IsLetter(rune(s[j])) || s[j] >= '0' && s[j] <= '9') {
				j++
			}
			toks = append(toks, lexToken{"ident", s[i:j], i})
			i = j
		default:
			return nil, fmt.Errorf("promql: unexpected character %q at %d", c, i)
		}
	}
	toks = append(toks, lexToken{kind: "eof", pos: len(s)})
	return toks, nil
}

func isDurUnit(c byte) bool {
	return c == 's' || c == 'm' || c == 'h' || c == 'd' || c == 'w'
}

func parseDur(s string) (time.Duration, error) {
	if d, err := time.ParseDuration(s); err == nil {
		return d, nil
	}
	if strings.HasSuffix(s, "d") {
		if n, err := strconv.ParseFloat(strings.TrimSuffix(s, "d"), 64); err == nil {
			return time.Duration(n * 24 * float64(time.Hour)), nil
		}
	}
	if strings.HasSuffix(s, "w") {
		if n, err := strconv.ParseFloat(strings.TrimSuffix(s, "w"), 64); err == nil {
			return time.Duration(n * 7 * 24 * float64(time.Hour)), nil
		}
	}
	return 0, fmt.Errorf("promql: bad duration %q", s)
}

// ---- parser ----

var rangeFns = map[string]bool{
	"rate": true, "increase": true, "delta": true, "idelta": true,
	"avg_over_time": true, "sum_over_time": true, "min_over_time": true,
	"max_over_time": true, "count_over_time": true, "last_over_time": true,
}

var aggOps = map[string]bool{
	"sum": true, "min": true, "max": true, "avg": true, "count": true,
}

type promParser struct {
	toks []lexToken
	pos  int
	src  string
}

// Parse parses a PromQL expression in the supported subset.
func Parse(input string) (Expr, error) {
	toks, err := lexPromQL(input)
	if err != nil {
		return nil, err
	}
	p := &promParser{toks: toks, src: input}
	e, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != "eof" {
		return nil, p.errf("trailing input %q", p.peek().text)
	}
	return e, nil
}

func (p *promParser) peek() lexToken { return p.toks[p.pos] }
func (p *promParser) next() lexToken { t := p.toks[p.pos]; p.pos++; return t }
func (p *promParser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("promql: parse error at %d in %q: %s", p.peek().pos, p.src, fmt.Sprintf(format, args...))
}

func (p *promParser) parseCmp() (Expr, error) {
	lhs, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == "op" && isCmpOp(t.text) {
		p.next()
		rhs, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return p.newBin(t.text, lhs, rhs)
	}
	return lhs, nil
}

func isCmpOp(op string) bool {
	return op == ">" || op == ">=" || op == "<" || op == "<=" || op == "==" || op == "!="
}

// newBin builds a binary expression, rejecting the operand shapes evalBin
// does not implement (it tells scalars from vectors by the same
// NumberExpr test) while the query is still a parse error — a 400 — and
// not a failed evaluation.
func (p *promParser) newBin(op string, lhs, rhs Expr) (Expr, error) {
	_, lScalar := lhs.(NumberExpr)
	_, rScalar := rhs.(NumberExpr)
	switch {
	case !lScalar && !rScalar:
		return nil, p.errf("vector-to-vector %q not supported in this subset", op)
	case lScalar && rScalar && isCmpOp(op):
		return nil, p.errf("scalar comparison without vector operand")
	}
	return &BinExpr{Op: op, LHS: lhs, RHS: rhs}, nil
}

func (p *promParser) parseAdd() (Expr, error) {
	lhs, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != "op" || (t.text != "+" && t.text != "-") {
			return lhs, nil
		}
		p.next()
		rhs, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		if lhs, err = p.newBin(t.text, lhs, rhs); err != nil {
			return nil, err
		}
	}
}

func (p *promParser) parseMul() (Expr, error) {
	lhs, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != "op" || (t.text != "*" && t.text != "/") {
			return lhs, nil
		}
		p.next()
		rhs, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		if lhs, err = p.newBin(t.text, lhs, rhs); err != nil {
			return nil, err
		}
	}
}

func (p *promParser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch {
	case t.kind == "number":
		p.next()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return NumberExpr(v), nil
	case t.kind == "punct" && t.text == "(":
		p.next()
		e, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == "ident":
		return p.parseIdent()
	}
	return nil, p.errf("unexpected %q", t.text)
}

func (p *promParser) expectPunct(s string) error {
	t := p.next()
	if t.kind != "punct" || t.text != s {
		p.pos--
		return p.errf("expected %q, got %q", s, t.text)
	}
	return nil
}

func (p *promParser) parseIdent() (Expr, error) {
	t := p.next()
	name := t.text
	switch {
	case rangeFns[name]:
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		sel, err := p.parseSelector()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("["); err != nil {
			return nil, err
		}
		durTok := p.next()
		if durTok.kind != "duration" {
			return nil, p.errf("expected duration, got %q", durTok.text)
		}
		d, err := parseDur(durTok.text)
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("]"); err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return &RangeFnExpr{Fn: name, Selector: sel, Range: d}, nil
	case name == "absent":
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		sel, err := p.parseSelector()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return &AbsentExpr{Selector: sel}, nil
	case aggOps[name]:
		agg := &AggExpr{Op: name}
		if err := p.maybeGrouping(agg); err != nil {
			return nil, err
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		inner, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		agg.Inner = inner
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if err := p.maybeGrouping(agg); err != nil {
			return nil, err
		}
		return agg, nil
	default:
		p.pos--
		return p.parseSelector()
	}
}

func (p *promParser) maybeGrouping(agg *AggExpr) error {
	t := p.peek()
	if t.kind != "ident" || (t.text != "by" && t.text != "without") {
		return nil
	}
	if len(agg.Grouping) > 0 || agg.Without {
		return p.errf("duplicate grouping")
	}
	p.next()
	agg.Without = t.text == "without"
	if err := p.expectPunct("("); err != nil {
		return err
	}
	for {
		nt := p.next()
		if nt.kind != "ident" {
			return p.errf("expected label name, got %q", nt.text)
		}
		agg.Grouping = append(agg.Grouping, nt.text)
		if p.peek().kind == "punct" && p.peek().text == "," {
			p.next()
			continue
		}
		break
	}
	return p.expectPunct(")")
}

func (p *promParser) parseSelector() (*SelectorExpr, error) {
	sel := &SelectorExpr{}
	t := p.peek()
	if t.kind == "ident" {
		sel.Name = t.text
		p.next()
	}
	if p.peek().kind == "punct" && p.peek().text == "{" {
		p.next()
		for {
			if p.peek().kind == "punct" && p.peek().text == "}" {
				p.next()
				break
			}
			nameTok := p.next()
			if nameTok.kind != "ident" {
				return nil, p.errf("expected label name, got %q", nameTok.text)
			}
			opTok := p.next()
			var mt labels.MatchType
			switch opTok.text {
			case "=":
				mt = labels.MatchEqual
			case "!=":
				mt = labels.MatchNotEqual
			case "=~":
				mt = labels.MatchRegexp
			case "!~":
				mt = labels.MatchNotRegexp
			default:
				return nil, p.errf("expected matcher op, got %q", opTok.text)
			}
			valTok := p.next()
			if valTok.kind != "string" {
				return nil, p.errf("expected string, got %q", valTok.text)
			}
			m, err := labels.NewMatcher(mt, nameTok.text, valTok.text)
			if err != nil {
				return nil, err
			}
			sel.Matchers = append(sel.Matchers, m)
			if p.peek().kind == "punct" && p.peek().text == "," {
				p.next()
			}
		}
	}
	if sel.Name == "" && len(sel.Matchers) == 0 {
		return nil, p.errf("empty selector")
	}
	return sel, nil
}

// ---- evaluation ----

// Engine evaluates expressions against a tsdb.DB. Range-function
// evaluation fans the selected series out over a bounded worker pool: a
// fleet-wide rate() touches one series per node, and each series folds
// independently.
type Engine struct {
	db       *tsdb.DB
	lookback time.Duration
	workers  int
	inFlight atomic.Int64
	tracker  *stats.Tracker
	frontend *frontend.Frontend
}

// NewEngine returns an engine with the default 5m staleness lookback and
// GOMAXPROCS workers.
func NewEngine(db *tsdb.DB) *Engine {
	return &Engine{db: db, lookback: DefaultLookback, workers: parallel.Workers(0)}
}

// SetParallelism bounds the per-series worker pool; n <= 1 evaluates
// sequentially. Call during setup, not concurrently with queries.
func (e *Engine) SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	e.workers = n
}

// QueryParallelism reports in-flight range-function workers; the
// warehouse exposes it as a gauge.
func (e *Engine) QueryParallelism() int64 { return e.inFlight.Load() }

// SetTracker attaches the active-query tracker the HTTP handler registers
// queries with. Call during setup, not concurrently with queries.
func (e *Engine) SetTracker(t *stats.Tracker) { e.tracker = t }

// Tracker returns the attached active-query tracker, nil when unset.
func (e *Engine) Tracker() *stats.Tracker { return e.tracker }

// Instant evaluates the expression at ts (Unix ms).
func (e *Engine) Instant(expr Expr, ts int64) (Vector, error) {
	return e.InstantContext(context.Background(), expr, ts)
}

// InstantContext is Instant with cancellation and per-query statistics
// carried by ctx.
func (e *Engine) InstantContext(ctx context.Context, expr Expr, ts int64) (Vector, error) {
	// Checked here, once, for every node type: a bare selector reads one
	// sample per series and would otherwise never look at its context.
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	stats.FromContext(ctx).MarkExec()
	switch ex := expr.(type) {
	case NumberExpr:
		return Vector{{T: ts, V: float64(ex)}}, nil
	case *SelectorExpr:
		ms, err := ex.allMatchers()
		if err != nil {
			return nil, err
		}
		data := e.db.LatestBeforeContext(ctx, ms, ts, e.lookback.Milliseconds())
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
		data := e.db.LatestBeforeContext(ctx, ms, ts, e.lookback.Milliseconds())
		if len(data) > 0 {
			return nil, nil
		}
		b := labels.NewBuilder(nil)
		for _, m := range ex.Selector.Matchers {
			if m.Type == labels.MatchEqual {
				b.Set(m.Name, m.Value)
			}
		}
		return Vector{{Labels: b.Labels(), T: ts, V: 1}}, nil
	case *AggExpr:
		return e.evalAgg(ctx, ex, ts)
	case *BinExpr:
		return e.evalBin(ctx, ex, ts)
	default:
		return nil, fmt.Errorf("promql: unsupported expression %T", expr)
	}
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
	if e.frontend != nil {
		return e.rangeViaFrontend(ctx, expr, start, end, step)
	}
	sc := stats.FromContext(ctx)
	sc.MarkExec()
	sc.AddSplit()
	return e.rangeDirect(ctx, expr, start, end, step)
}

// rangeDirect is the monolithic range evaluation: one instant
// evaluation per step over the whole window. The frontend calls it per
// split; split results concatenate to exactly this loop's output.
func (e *Engine) rangeDirect(ctx context.Context, expr Expr, start, end int64, step time.Duration) (Matrix, error) {
	byKey := map[string]*Series{}
	var order []string
	for ts := start; ts <= end; ts += step.Milliseconds() {
		vec, err := e.InstantContext(ctx, expr, ts)
		if err != nil {
			return nil, err
		}
		for _, s := range vec {
			key := s.Labels.String()
			sr, ok := byKey[key]
			if !ok {
				sr = &Series{Labels: s.Labels}
				byKey[key] = sr
				order = append(order, key)
			}
			sr.Points = append(sr.Points, Point{T: ts, V: s.V})
		}
	}
	sort.Strings(order)
	m := make(Matrix, 0, len(order))
	for _, k := range order {
		m = append(m, *byKey[k])
	}
	return m, nil
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
	parallel.Do(len(data), e.workers, &e.inFlight, func(i int) {
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
		out = append(out, Sample{Labels: sd.Labels.Without(tsdb.MetricNameLabel), T: ts, V: results[i].v})
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
		sum, minV, maxV := 0.0, math.Inf(1), math.Inf(-1)
		for _, p := range s {
			sum += p.V
			minV = math.Min(minV, p.V)
			maxV = math.Max(maxV, p.V)
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

func (e *Engine) evalAgg(ctx context.Context, ex *AggExpr, ts int64) (Vector, error) {
	inner, err := e.InstantContext(ctx, ex.Inner, ts)
	if err != nil {
		return nil, err
	}
	group := func(ls labels.Labels) labels.Labels {
		ls = ls.Without(tsdb.MetricNameLabel)
		if ex.Without {
			return ls.Without(ex.Grouping...)
		}
		if len(ex.Grouping) == 0 {
			return nil
		}
		return ls.Keep(ex.Grouping...)
	}
	type acc struct {
		labels               labels.Labels
		sum, min, max, count float64
	}
	groups := map[string]*acc{}
	var order []string
	for _, s := range inner {
		gl := group(s.Labels)
		key := gl.String()
		g, ok := groups[key]
		if !ok {
			g = &acc{labels: gl, min: s.V, max: s.V}
			groups[key] = g
			order = append(order, key)
		}
		g.sum += s.V
		g.count++
		g.min = math.Min(g.min, s.V)
		g.max = math.Max(g.max, s.V)
	}
	sort.Strings(order)
	out := make(Vector, 0, len(order))
	for _, key := range order {
		g := groups[key]
		var v float64
		switch ex.Op {
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
		}
		out = append(out, Sample{Labels: g.labels, T: ts, V: v})
	}
	return out, nil
}

func (e *Engine) evalBin(ctx context.Context, ex *BinExpr, ts int64) (Vector, error) {
	lhs, err := e.InstantContext(ctx, ex.LHS, ts)
	if err != nil {
		return nil, err
	}
	rhs, err := e.InstantContext(ctx, ex.RHS, ts)
	if err != nil {
		return nil, err
	}
	_, lScalar := ex.LHS.(NumberExpr)
	_, rScalar := ex.RHS.(NumberExpr)
	isCmp := isCmpOp(ex.Op)

	apply := func(a, b float64) (float64, bool) {
		switch ex.Op {
		case "+":
			return a + b, true
		case "-":
			return a - b, true
		case "*":
			return a * b, true
		case "/":
			return a / b, true
		case ">":
			return a, a > b
		case ">=":
			return a, a >= b
		case "<":
			return a, a < b
		case "<=":
			return a, a <= b
		case "==":
			return a, a == b
		case "!=":
			return a, a != b
		}
		return 0, false
	}
	switch {
	case lScalar && rScalar:
		if isCmp {
			return nil, fmt.Errorf("promql: scalar comparison without vector operand")
		}
		v, _ := apply(lhs[0].V, rhs[0].V)
		return Vector{{T: ts, V: v}}, nil
	case rScalar:
		b := rhs[0].V
		out := make(Vector, 0, len(lhs))
		for _, s := range lhs {
			v, keep := apply(s.V, b)
			if !keep && isCmp {
				continue
			}
			lbls := s.Labels
			if !isCmp {
				lbls = lbls.Without(tsdb.MetricNameLabel)
			}
			out = append(out, Sample{Labels: lbls, T: ts, V: v})
		}
		return out, nil
	case lScalar:
		a := lhs[0].V
		out := make(Vector, 0, len(rhs))
		for _, s := range rhs {
			var v float64
			var keep bool
			if isCmp {
				// scalar OP vector keeps vector samples where the comparison holds
				switch ex.Op {
				case ">":
					keep = a > s.V
				case ">=":
					keep = a >= s.V
				case "<":
					keep = a < s.V
				case "<=":
					keep = a <= s.V
				case "==":
					keep = a == s.V
				case "!=":
					keep = a != s.V
				}
				v = s.V
				if !keep {
					continue
				}
			} else {
				v, _ = apply(a, s.V)
			}
			lbls := s.Labels
			if !isCmp {
				lbls = lbls.Without(tsdb.MetricNameLabel)
			}
			out = append(out, Sample{Labels: lbls, T: ts, V: v})
		}
		return out, nil
	default:
		return nil, fmt.Errorf("promql: vector-to-vector %q not supported in this subset", ex.Op)
	}
}

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
	points := 0
	for _, s := range m {
		points += len(s.Points)
	}
	stats.FromContext(ctx).AddEntriesReturned(int64(points))
	return m, nil
}
