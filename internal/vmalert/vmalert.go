// Package vmalert is the metric alerting component of the paper's
// pipeline: "vmalert, a component of the VictoriaMetrics cluster, queries
// the database continuously with predefined alerting rules created by
// NERSC. If the return value is true, vmalert sends an event to
// AlertManager." It is the PromQL binding of the one rule evaluator in
// package ruler: rules, the `for:` hold, firing, resolution, tracing and
// self-metrics are the Loki Ruler's, under the "vmalert" component name.
package vmalert

import (
	"fmt"
	"time"

	"shastamon/internal/frontend"
	"shastamon/internal/promql"
	"shastamon/internal/ruler"
)

type (
	// Rule is one metric alerting rule; Expr is PromQL.
	Rule = ruler.Rule
	// VMAlert evaluates rules against a PromQL engine.
	VMAlert = ruler.Ruler
)

// New compiles the rules and returns a VMAlert. Rule names must be unique
// and expressions must parse as PromQL.
func New(engine *promql.Engine, notifier ruler.Notifier, now func() time.Time, rules ...Rule) (*VMAlert, error) {
	if engine == nil {
		return nil, fmt.Errorf("vmalert: engine and notifier required")
	}
	return ruler.NewEvaluator("vmalert", func(expr string) (ruler.QueryFunc, error) {
		e, err := promql.Parse(expr)
		if err != nil {
			return nil, err
		}
		return func(at time.Time) (frontend.Vector, error) { return engine.Instant(e, at.UnixMilli()) }, nil
	}, notifier, now, rules...)
}
