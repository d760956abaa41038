package logql

import (
	"fmt"
	"strconv"

	"shastamon/internal/frontend"
	"shastamon/internal/labels"
)

var rangeOps = map[string]RangeOp{
	"count_over_time":  OpCountOverTime,
	"rate":             OpRate,
	"bytes_over_time":  OpBytesOverTime,
	"bytes_rate":       OpBytesRate,
	"absent_over_time": OpAbsentOverTime,
	"sum_over_time":    OpSumOverTime,
	"avg_over_time":    OpAvgOverTime,
	"max_over_time":    OpMaxOverTime,
	"min_over_time":    OpMinOverTime,
}

// unwrapOps require an unwrap stage in the inner log pipeline.
var unwrapOps = map[RangeOp]bool{
	OpSumOverTime: true, OpAvgOverTime: true, OpMaxOverTime: true, OpMinOverTime: true,
}

// lang is LogQL's part of the shared grammar: its leaves are range
// aggregations over log selections.
var lang = &frontend.Language{Name: "logql", Leaf: parseRangeAgg}

// ParseExpr parses a complete LogQL expression — either a log query or a
// metric query (range/vector aggregation with optional threshold).
func ParseExpr(input string) (Expr, error) {
	return lang.Parse(input, func(p *frontend.Parser) (Expr, error) {
		if p.Peek().Is("{") {
			e, _, err := parseLogExpr(p, false)
			return e, err
		}
		return p.Expr()
	})
}

// ParseLogExpr parses an expression that must be a plain log query.
func ParseLogExpr(input string) (*LogExpr, error) {
	e, err := ParseExpr(input)
	if err != nil {
		return nil, err
	}
	le, ok := e.(*LogExpr)
	if !ok {
		return nil, fmt.Errorf("logql: %q is a metric query, not a log query", input)
	}
	return le, nil
}

// ParseMetricExpr parses an expression that must be a metric query.
func ParseMetricExpr(input string) (MetricExpr, error) {
	e, err := ParseExpr(input)
	if err != nil {
		return nil, err
	}
	if _, ok := e.(*LogExpr); ok {
		return nil, fmt.Errorf("logql: %q is a log query, not a metric query", input)
	}
	return e, nil
}

// parseRangeAgg parses op '(' logExpr [| unwrap lbl] '[' dur ']' ')'.
func parseRangeAgg(p *frontend.Parser) (Expr, error) {
	t, err := p.Expect(frontend.TokIdent)
	if err != nil {
		return nil, err
	}
	op, ok := rangeOps[t.Text]
	if !ok {
		return nil, p.Errf(t, "unknown function %q", t.Text)
	}
	if err := p.ExpectSym("("); err != nil {
		return nil, err
	}
	log, unwrap, err := parseLogExpr(p, true)
	if err != nil {
		return nil, err
	}
	dur, err := p.Range(true)
	if err != nil {
		return nil, err
	}
	if err := p.ExpectSym(")"); err != nil {
		return nil, err
	}
	if unwrapOps[op] && unwrap == "" {
		return nil, fmt.Errorf("logql: %s requires '| unwrap <label>'", op)
	}
	if !unwrapOps[op] && unwrap != "" {
		return nil, fmt.Errorf("logql: %s does not take an unwrap stage", op)
	}
	return &RangeAggExpr{Op: op, Log: log, Interval: dur, Unwrap: unwrap}, nil
}

// parseLogExpr parses a selector plus stages. Inside a range
// aggregation (inRange) it stops at the range bracket and accepts an
// unwrap stage, whose label it returns.
func parseLogExpr(p *frontend.Parser, inRange bool) (*LogExpr, string, error) {
	sel, err := p.Matchers()
	if err != nil {
		return nil, "", err
	}
	e := &LogExpr{Selector: sel}
	unwrap := ""
	for {
		t := p.Peek()
		switch {
		case t.Is("|="), t.Is("!="), t.Is("|~"), t.Is("!~"):
			p.Next()
			str, err := p.Expect(frontend.TokString)
			if err != nil {
				return nil, "", err
			}
			st, err := newLineFilter(t.Text, str.Text)
			if err != nil {
				return nil, "", err
			}
			e.Stages = append(e.Stages, st)
		case t.Is("|"):
			p.Next()
			st, uw, err := parsePipeStage(p, inRange)
			if err != nil {
				return nil, "", err
			}
			if uw != "" {
				if unwrap != "" {
					return nil, "", fmt.Errorf("logql: duplicate unwrap")
				}
				unwrap = uw
				continue
			}
			e.Stages = append(e.Stages, st)
		default:
			return e, unwrap, nil
		}
	}
}

func parsePipeStage(p *frontend.Parser, allowUnwrap bool) (Stage, string, error) {
	t := p.Next()
	if t.Kind != frontend.TokIdent {
		return nil, "", p.Errf(t, "expected stage after '|', got %q", t.Text)
	}
	switch t.Text {
	case "json":
		return jsonStage{}, "", nil
	case "logfmt":
		return logfmtStage{}, "", nil
	case "pattern":
		str, err := p.Expect(frontend.TokString)
		if err != nil {
			return nil, "", err
		}
		st, err := newPatternStage(str.Text)
		return st, "", err
	case "regexp":
		str, err := p.Expect(frontend.TokString)
		if err != nil {
			return nil, "", err
		}
		st, err := newRegexpStage(str.Text)
		return st, "", err
	case "unwrap":
		if !allowUnwrap {
			return nil, "", p.Errf(t, "unwrap is only valid inside a range aggregation")
		}
		name, err := p.Expect(frontend.TokIdent)
		if err != nil {
			return nil, "", err
		}
		return nil, name.Text, nil
	case "line_format":
		str, err := p.Expect(frontend.TokString)
		if err != nil {
			return nil, "", err
		}
		return &lineFormatStage{template: str.Text}, "", nil
	case "label_format":
		dst, err := p.Expect(frontend.TokIdent)
		if err != nil {
			return nil, "", err
		}
		if err := p.ExpectSym("="); err != nil {
			return nil, "", err
		}
		v := p.Next()
		switch v.Kind {
		case frontend.TokIdent:
			return &labelFormatStage{dst: dst.Text, src: v.Text}, "", nil
		case frontend.TokString:
			return &labelFormatStage{dst: dst.Text, template: v.Text}, "", nil
		default:
			return nil, "", p.Errf(v, "label_format expects identifier or string")
		}
	}
	// Label filter: ident op (string | number | duration)
	name, opTok, valTok := t.Text, p.Next(), p.Next()
	if opTok.Kind != frontend.TokSymbol {
		return nil, "", p.Errf(opTok, "unknown stage %q", name)
	}
	if mt, ok := frontend.MatchType(opTok.Text); ok && valTok.Kind == frontend.TokString {
		m, err := labels.NewMatcher(mt, name, valTok.Text)
		if err != nil {
			return nil, "", err
		}
		return &labelFilterStage{matcher: m}, "", nil
	}
	op := opTok.Text
	switch op {
	case "=", "!=":
		if valTok.Kind != frontend.TokNumber {
			return nil, "", p.Errf(valTok, "expected string or number after %s", op)
		}
		if op == "=" {
			op = "=="
		}
	case "=~", "!~":
		if valTok.Kind == frontend.TokNumber {
			return nil, "", p.Errf(valTok, "regexp filter needs a string")
		}
		return nil, "", p.Errf(valTok, "expected string or number after %s", op)
	case ">", ">=", "<", "<=", "==":
		if valTok.Kind == frontend.TokDuration {
			d, err := frontend.ParseDuration(valTok.Text)
			if err != nil {
				return nil, "", p.Errf(valTok, "bad number: %v", err)
			}
			return &labelFilterStage{name: name, op: op, num: float64(d) / 1e9}, "", nil
		}
		if valTok.Kind != frontend.TokNumber {
			return nil, "", p.Errf(valTok, "expected number after comparison")
		}
	default:
		return nil, "", p.Errf(opTok, "unknown stage %q", name)
	}
	v, err := strconv.ParseFloat(valTok.Text, 64)
	if err != nil {
		return nil, "", p.Errf(valTok, "bad number: %v", err)
	}
	return &labelFilterStage{name: name, op: op, num: v}, "", nil
}
