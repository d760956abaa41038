package logql

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"shastamon/internal/labels"
)

// Expr is any parsed LogQL expression: a log query or a metric query.
type Expr interface {
	fmt.Stringer
	expr()
}

// MetricExpr is an expression producing samples rather than log lines.
type MetricExpr interface {
	Expr
	metricExpr()
}

// LogExpr is a stream selector followed by a pipeline of stages, e.g.
//
//	{data_type="redfish_event"} |= "CabinetLeakDetected" | json
type LogExpr struct {
	Selector labels.Selector
	Stages   []Stage
}

func (*LogExpr) expr() {}

// String renders the expression back to LogQL.
func (e *LogExpr) String() string {
	var b strings.Builder
	b.WriteString(e.Selector.String())
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

func (*RangeAggExpr) expr()       {}
func (*RangeAggExpr) metricExpr() {}

func (e *RangeAggExpr) String() string {
	unwrap := ""
	if e.Unwrap != "" {
		unwrap = " | unwrap " + e.Unwrap
	}
	return fmt.Sprintf("%s(%s%s [%s])", e.Op, e.Log, unwrap, e.Interval)
}

// VectorAggExpr is e.g. sum(...) by (severity, cluster).
type VectorAggExpr struct {
	Op       string // sum, min, max, avg, count, topk, bottomk
	Param    int    // k for topk/bottomk
	Inner    MetricExpr
	Grouping []string
	Without  bool
}

func (*VectorAggExpr) expr()       {}
func (*VectorAggExpr) metricExpr() {}

func (e *VectorAggExpr) String() string {
	g := ""
	if len(e.Grouping) > 0 || e.Without {
		kw := "by"
		if e.Without {
			kw = "without"
		}
		g = fmt.Sprintf(" %s (%s)", kw, strings.Join(e.Grouping, ", "))
	}
	if e.Param > 0 {
		return fmt.Sprintf("%s(%d, %s)%s", e.Op, e.Param, e.Inner, g)
	}
	return fmt.Sprintf("%s(%s)%s", e.Op, e.Inner, g)
}

// CmpOp is a comparison operator in threshold expressions.
type CmpOp string

// Comparison operators.
const (
	CmpGT  CmpOp = ">"
	CmpGTE CmpOp = ">="
	CmpLT  CmpOp = "<"
	CmpLTE CmpOp = "<="
	CmpEQ  CmpOp = "=="
	CmpNE  CmpOp = "!="
)

// CmpExpr filters the samples of Inner by comparison against a scalar,
// following PromQL filter semantics (non-matching samples drop out). This
// is the shape of every alerting rule expression in the paper.
type CmpExpr struct {
	Inner     MetricExpr
	Op        CmpOp
	Threshold float64
}

func (*CmpExpr) expr()       {}
func (*CmpExpr) metricExpr() {}

func (e *CmpExpr) String() string {
	return fmt.Sprintf("%s %s %s", e.Inner, e.Op, strconv.FormatFloat(e.Threshold, 'g', -1, 64))
}
