// Package logql implements the subset of Grafana Loki's LogQL query
// language used throughout the paper: stream selectors, line filters,
// parser stages (json, logfmt, pattern, regexp), label filters, formatting
// stages, range aggregations over log selections (count_over_time, rate,
// bytes_over_time, ...) and vector aggregations (sum by (...), ...), plus
// threshold comparisons used in alerting rules.
//
// The metric grammar — lexer, numbers, durations, {…} matchers,
// aggregations, binary operators and their evaluation — is the one
// frontend grammar PromQL shares; this package plugs in its leaves: the
// log selector and stage pipeline (parse.go, stages.go) and the range
// aggregations over it (eval.go).
package logql

import (
	"fmt"
	"strings"
	"time"

	"shastamon/internal/frontend"
	"shastamon/internal/labels"
)

// Expr is any parsed LogQL expression: a log query (*LogExpr) or a
// metric query.
type Expr = frontend.Expr

// MetricExpr is an expression producing samples rather than log lines:
// any Expr but a *LogExpr.
type MetricExpr = frontend.Expr

// LogExpr is a stream selector followed by a pipeline of stages, e.g.
//
//	{data_type="redfish_event"} |= "CabinetLeakDetected" | json
type LogExpr struct {
	Selector labels.Selector
	Stages   []Stage
}

// String renders the expression back to LogQL.
func (e *LogExpr) String() string {
	var b strings.Builder
	b.WriteString(frontend.FormatMatchers(e.Selector))
	for _, s := range e.Stages {
		b.WriteByte(' ')
		b.WriteString(s.String())
	}
	return b.String()
}

// RangeOp is a range aggregation function over a log selection.
type RangeOp string

// Range aggregation operations supported.
const (
	OpCountOverTime  RangeOp = "count_over_time"
	OpRate           RangeOp = "rate"
	OpBytesOverTime  RangeOp = "bytes_over_time"
	OpBytesRate      RangeOp = "bytes_rate"
	OpAbsentOverTime RangeOp = "absent_over_time"
	OpSumOverTime    RangeOp = "sum_over_time"
	OpAvgOverTime    RangeOp = "avg_over_time"
	OpMaxOverTime    RangeOp = "max_over_time"
	OpMinOverTime    RangeOp = "min_over_time"
)

// RangeAggExpr is e.g. count_over_time({...} |= "x" [60m]). For the
// *_over_time value functions (sum/avg/max/min) an Unwrap label supplies
// the sample values.
type RangeAggExpr struct {
	Op       RangeOp
	Log      *LogExpr
	Interval time.Duration
	Unwrap   string // label to unwrap for value aggregations; "" otherwise
}

func (e *RangeAggExpr) String() string {
	unwrap := ""
	if e.Unwrap != "" {
		unwrap = " | unwrap " + e.Unwrap
	}
	return fmt.Sprintf("%s(%s%s [%s])", e.Op, e.Log, unwrap, frontend.FormatDuration(e.Interval))
}

// Lookback is how far before its step timestamp the aggregation reads.
func (e *RangeAggExpr) Lookback() time.Duration { return e.Interval }
