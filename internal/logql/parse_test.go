package logql

import (
	"strings"
	"testing"
	"time"

	"shastamon/internal/frontend"
)

func TestParseLogSelector(t *testing.T) {
	e, err := ParseLogExpr(`{data_type="redfish_event", cluster=~"perl.*"}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Selector) != 2 {
		t.Fatalf("selector %v", e.Selector)
	}
	if len(e.Stages) != 0 {
		t.Fatal("unexpected stages")
	}
}

func TestParseEmptySelector(t *testing.T) {
	e, err := ParseLogExpr(`{}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Selector) != 0 {
		t.Fatal("expected empty selector")
	}
}

func TestParseLineFilters(t *testing.T) {
	e, err := ParseLogExpr(`{a="b"} |= "yes" != "no" |~ "re.*" !~ "nre"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Stages) != 4 {
		t.Fatalf("stages: %d", len(e.Stages))
	}
}

func TestParsePipelineStages(t *testing.T) {
	q := `{a="b"} | json | logfmt | pattern "<x>:<y>" | regexp "(?P<n>\\d+)" | severity="Warning" | value > 5 | line_format "{{.x}}" | label_format dst=src`
	e, err := ParseLogExpr(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Stages) != 8 {
		t.Fatalf("stages: %d: %s", len(e.Stages), e)
	}
}

// The paper's Fig. 5 query, verbatim.
func TestParsePaperFig5Query(t *testing.T) {
	q := `sum(count_over_time({data_type="redfish_event"} |= "CabinetLeakDetected" | json [60m])) by (severity, cluster, context, message_id, message)`
	e, err := ParseMetricExpr(q)
	if err != nil {
		t.Fatal(err)
	}
	agg, ok := e.(*frontend.AggExpr)
	if !ok {
		t.Fatalf("not a vector agg: %T", e)
	}
	if agg.Op != "sum" || agg.Without || len(agg.Grouping) != 5 {
		t.Fatalf("agg: %+v", agg)
	}
	ra, ok := agg.Inner.(*RangeAggExpr)
	if !ok || ra.Op != OpCountOverTime || ra.Interval != time.Hour {
		t.Fatalf("inner: %+v", agg.Inner)
	}
	if len(ra.Log.Stages) != 2 {
		t.Fatalf("log stages: %d", len(ra.Log.Stages))
	}
}

// The paper's Fig. 8 rule expression shape.
func TestParsePaperFig8Query(t *testing.T) {
	q := `sum(count_over_time({app="fabric_manager_monitor"} |= "fm_switch_offline" | pattern "[<severity>] problem:<problem>, xname:<xname>, state:<state>" [5m])) by (severity, problem, xname, state) > 0`
	e, err := ParseMetricExpr(q)
	if err != nil {
		t.Fatal(err)
	}
	cmp, ok := e.(*frontend.BinExpr)
	if !ok || cmp.Op != ">" || cmp.RHS != frontend.NumberExpr(0) {
		t.Fatalf("cmp: %+v", e)
	}
}

func TestParseGroupingBeforeParens(t *testing.T) {
	e, err := ParseMetricExpr(`sum by (xname) (rate({a="b"}[1m]))`)
	if err != nil {
		t.Fatal(err)
	}
	agg := e.(*frontend.AggExpr)
	if len(agg.Grouping) != 1 || agg.Grouping[0] != "xname" {
		t.Fatalf("%+v", agg)
	}
}

func TestParseWithout(t *testing.T) {
	e, err := ParseMetricExpr(`avg without (node) (count_over_time({a="b"}[1m]))`)
	if err != nil {
		t.Fatal(err)
	}
	agg := e.(*frontend.AggExpr)
	if !agg.Without {
		t.Fatal("without flag unset")
	}
}

func TestParseTopK(t *testing.T) {
	e, err := ParseMetricExpr(`topk(3, count_over_time({a="b"}[1m]))`)
	if err != nil {
		t.Fatal(err)
	}
	agg := e.(*frontend.AggExpr)
	if agg.Param != 3 || agg.Op != "topk" {
		t.Fatalf("%+v", agg)
	}
}

func TestParseUnwrap(t *testing.T) {
	e, err := ParseMetricExpr(`sum_over_time({a="b"} | logfmt | unwrap bytes [5m])`)
	if err != nil {
		t.Fatal(err)
	}
	ra := e.(*RangeAggExpr)
	if ra.Unwrap != "bytes" {
		t.Fatalf("unwrap %q", ra.Unwrap)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`{a=}`,
		`{a="b"`,
		`{a="b"} |`,
		`{a="b"} | bogus_stage_name ???`,
		`count_over_time({a="b"})`,         // missing range
		`sum(count_over_time({a="b"}[1m])`, // unbalanced
		`sum_over_time({a="b"} [5m])`,      // unwrap required
		`count_over_time({a="b"} | unwrap x [5m])`, // unwrap not allowed
		`nosuchfunc({a="b"}[1m])`,
		`{a="b"} trailing`,
		`sum(count_over_time({a="b"}[1m])) by ()`,
		`topk(0, count_over_time({a="b"}[1m]))`,
		`{a="b"} |= "x" > 5`,
	}
	for _, q := range bad {
		if _, err := ParseExpr(q); err == nil {
			t.Errorf("no error for %q", q)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	queries := []string{
		`{data_type="redfish_event"} |= "CabinetLeakDetected" | json`,
		`sum(count_over_time({a="b"} [60m])) by (severity)`,
		`rate({app="fm"} [5m]) > 0`,
	}
	for _, q := range queries {
		e, err := ParseExpr(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		// Re-parse the rendered form; it must parse and render identically.
		e2, err := ParseExpr(e.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", e.String(), err)
		}
		if e.String() != e2.String() {
			t.Fatalf("unstable render: %q vs %q", e.String(), e2.String())
		}
	}
}

func TestParseMetricVsLogMismatch(t *testing.T) {
	if _, err := ParseLogExpr(`rate({a="b"}[1m])`); err == nil || !strings.Contains(err.Error(), "metric query") {
		t.Fatalf("err = %v", err)
	}
	if _, err := ParseMetricExpr(`{a="b"}`); err == nil || !strings.Contains(err.Error(), "log query") {
		t.Fatalf("err = %v", err)
	}
}
