// Package ruler is the alerting-rule lifecycle of the paper's Fig. 8 —
// evaluate `expr`, hold each matching series through its `for:`
// duration, fire, resolve when it stops matching, expanding
// `{{ $labels.x }}` annotations — implemented once for both alerting
// components. An evaluator is bound to a component by two pieces of
// data: its name, from which metric families, span names and error
// prefixes derive, and a compile function that turns a rule expression
// into an instant query. This package also holds the LogQL binding, the
// Loki Ruler: "a component that enables assessment of a collection of
// configurable queries and executes an action based on the outcome".
// Package vmalert is the PromQL binding.
package ruler

import (
	"errors"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"sync"
	"time"

	"shastamon/internal/alertmanager"
	"shastamon/internal/anomaly"
	"shastamon/internal/frontend"
	"shastamon/internal/labels"
	"shastamon/internal/logql"
	"shastamon/internal/obs"
)

// Rule is one alerting rule in the Loki/Prometheus rule format.
type Rule struct {
	Name        string            // alert: name
	Expr        string            // LogQL or PromQL expression; any returned sample is "true"
	For         time.Duration     // hold duration before firing
	Labels      map[string]string // added to the alert
	Annotations map[string]string // templated with {{ $labels.x }} / {{ $value }}
	// Anomaly turns the rule predictive: Expr selects the metric series
	// to watch (e.g. a per-app log rate), and each sample is scored by a
	// streaming detector — only anomalous samples enter the For-hold and
	// firing machinery, with the sample value replaced by the signed
	// score in sigmas so `{{ $value }}` renders deviation severity.
	Anomaly *anomaly.Config
}

// Notifier receives alerts; *alertmanager.Manager satisfies it.
type Notifier interface {
	Receive(alerts ...alertmanager.Alert)
}

// QueryFunc evaluates one compiled rule expression at an instant. It
// hides the query language and the engine's timestamp unit.
type QueryFunc func(at time.Time) (frontend.Vector, error)

type compiledRule struct {
	rule  Rule
	query QueryFunc
	det   *anomaly.Detector // non-nil for anomaly rules
	state map[labels.Fingerprint]*alertState
}

type alertState struct {
	activeSince time.Time
	firing      bool
	labels      labels.Labels
	value       float64
}

// Ruler evaluates alerting rules for one component ("ruler", "vmalert").
type Ruler struct {
	component string
	notifier  Notifier
	now       func() time.Time
	tracer    *obs.Tracer

	reg      *obs.Registry
	evalsCtr *obs.Counter
	evalDur  *obs.Histogram
	ruleDur  *obs.HistogramVec
	firedVec *obs.CounterVec

	// Anomaly self-metrics, registered only when an anomaly rule exists.
	anomEvals     *obs.CounterVec
	anomDetects   *obs.CounterVec
	anomScore     *obs.GaugeVec
	anomSeries    *obs.GaugeVec
	anomSaturated *obs.GaugeVec

	mu    sync.Mutex
	rules []compiledRule
}

// New compiles the rules and returns the Loki Ruler. Rule names must be
// unique and expressions must be LogQL metric queries.
func New(engine *logql.Engine, notifier Notifier, now func() time.Time, rules ...Rule) (*Ruler, error) {
	if engine == nil {
		return nil, fmt.Errorf("ruler: engine and notifier required")
	}
	return NewEvaluator("ruler", func(expr string) (QueryFunc, error) {
		e, err := logql.ParseMetricExpr(expr)
		if err != nil {
			return nil, err
		}
		return func(at time.Time) (frontend.Vector, error) { return engine.Instant(e, at.UnixNano()) }, nil
	}, notifier, now, rules...)
}

// NewEvaluator returns an evaluator for the named component whose rule
// expressions compile turns into instant queries.
func NewEvaluator(component string, compile func(expr string) (QueryFunc, error), notifier Notifier, now func() time.Time, rules ...Rule) (*Ruler, error) {
	if notifier == nil {
		return nil, fmt.Errorf("%s: engine and notifier required", component)
	}
	if now == nil {
		now = time.Now
	}
	r := &Ruler{component: component, notifier: notifier, now: now, reg: obs.NewRegistry()}
	r.evalsCtr = r.reg.Counter(obs.Namespace+component+"_evaluations_total",
		"Rule evaluation rounds run.")
	r.evalDur = r.reg.Histogram(obs.Namespace+component+"_evaluation_duration_seconds",
		"Wall time of one full evaluation round.", obs.DefBuckets)
	r.firedVec = r.reg.CounterVec(obs.Namespace+component+"_alerts_fired_total",
		"Alerts transitioned to firing, by rule.", "rule")
	r.ruleDur = r.reg.HistogramVec(obs.Namespace+"rule_eval_seconds",
		"Wall time of one rule's evaluation, by rule.", obs.DefBuckets, "rule")
	seen := map[string]bool{}
	for _, rule := range rules {
		if rule.Name == "" {
			return nil, fmt.Errorf("%s: rule needs a name: %+v", component, rule)
		}
		if seen[rule.Name] {
			return nil, fmt.Errorf("%s: duplicate rule %q", component, rule.Name)
		}
		seen[rule.Name] = true
		query, err := compile(rule.Expr)
		if err != nil {
			return nil, fmt.Errorf("%s: rule %q: %w", component, rule.Name, err)
		}
		cr := compiledRule{rule: rule, query: query, state: map[labels.Fingerprint]*alertState{}}
		if rule.Anomaly != nil {
			if cr.det, err = anomaly.NewDetector(*rule.Anomaly); err != nil {
				return nil, fmt.Errorf("%s: rule %q: %w", component, rule.Name, err)
			}
			if r.anomEvals == nil {
				r.registerAnomalyMetrics()
			}
		}
		r.rules = append(r.rules, cr)
	}
	return r, nil
}

func (r *Ruler) registerAnomalyMetrics() {
	r.anomEvals = r.reg.CounterVec(obs.Namespace+"anomaly_evaluations_total",
		"Samples scored by anomaly detectors, by rule.", "rule")
	r.anomDetects = r.reg.CounterVec(obs.Namespace+"anomaly_detections_total",
		"Samples judged anomalous, by rule.", "rule")
	r.anomScore = r.reg.GaugeVec(obs.Namespace+"anomaly_score",
		"Largest |score| (in sigmas) among warm samples in the last round, by rule.", "rule")
	r.anomSeries = r.reg.GaugeVec(obs.Namespace+"anomaly_series",
		"Series tracked by the detector, by rule.", "rule")
	r.anomSaturated = r.reg.GaugeVec(obs.Namespace+"anomaly_detector_saturated",
		"1 when detector state hit its memory bound and new series are dropped, by rule.", "rule")
}

// detect filters an instant vector through the rule's streaming
// detector: only anomalous samples survive, carrying the signed score
// (sigmas) as their value, and the detector self-metrics are refreshed.
func (r *Ruler) detect(cr compiledRule, vec frontend.Vector, now time.Time) frontend.Vector {
	out := make(frontend.Vector, 0, len(vec))
	var maxAbs float64
	for _, sample := range vec {
		sc := cr.det.Observe(uint64(sample.Labels.Fingerprint()), now, sample.V)
		if a := math.Abs(sc.Score); sc.Warm && a > maxAbs {
			maxAbs = a
		}
		if !sc.Anomalous {
			continue
		}
		sample.V = sc.Score
		out = append(out, sample)
	}
	name := cr.rule.Name
	r.anomEvals.With(name).Add(float64(len(vec)))
	r.anomDetects.With(name).Add(float64(len(out)))
	st := cr.det.Stats()
	r.anomScore.With(name).Set(maxAbs)
	r.anomSeries.With(name).Set(float64(st.Series))
	saturated := 0.0
	if st.Saturated {
		saturated = 1
	}
	r.anomSaturated.With(name).Set(saturated)
	return out
}

// Metrics exposes the evaluator's self-monitoring registry.
func (r *Ruler) Metrics() *obs.Registry { return r.reg }

// SetTracer attaches an event tracer; firing alerts record a
// "<component>.fire" stage on the trace of the newest event from the
// same hardware component or subsystem.
func (r *Ruler) SetTracer(t *obs.Tracer) { r.tracer = t }

// traceKeyLabels are the label names tried, in order, as an alert's
// trace correlation key. Hardware alerts carry an xname (or the Context
// stream label of Redfish events); the built-in meta-alerts about the
// pipeline itself are keyed by whichever subsystem dimension they fire on.
var traceKeyLabels = []string{"xname", "Context", "dependency", "target", "topic", "stage", "rule"}

func traceKey(ls labels.Labels) string {
	for _, name := range traceKeyLabels {
		if v := ls.Get(name); v != "" {
			return v
		}
	}
	return ""
}

var tmplVar = regexp.MustCompile(`\{\{\s*\$(labels\.([a-zA-Z_][a-zA-Z0-9_]*)|value)\s*\}\}`)

// ExpandTemplate substitutes {{ $labels.name }} and {{ $value }} in rule
// annotations.
func ExpandTemplate(s string, ls labels.Labels, value float64) string {
	return tmplVar.ReplaceAllStringFunc(s, func(m string) string {
		sub := tmplVar.FindStringSubmatch(m)
		if sub[1] == "value" {
			return strconv.FormatFloat(value, 'g', -1, 64)
		}
		return ls.Get(sub[2])
	})
}

// EvalOnce evaluates every rule at the evaluator's current time and
// sends newly-firing and newly-resolved alerts to the notifier. It
// returns the alerts sent. A rule whose query fails keeps its state
// untouched and does not stop the round: the other rules still evaluate
// and deliver, and the per-rule errors come back joined.
func (r *Ruler) EvalOnce() ([]alertmanager.Alert, error) {
	now := r.now()
	t0 := time.Now()
	r.mu.Lock()
	defer func() {
		r.mu.Unlock()
		r.evalDur.Observe(time.Since(t0).Seconds())
	}()
	r.evalsCtr.Inc()
	var sent []alertmanager.Alert
	var errs []error
	for _, cr := range r.rules {
		rt0 := time.Now()
		vec, err := cr.query(now)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: rule %q: %w", r.component, cr.rule.Name, err))
			continue
		}
		if cr.det != nil {
			vec = r.detect(cr, vec, now)
		}
		active := map[labels.Fingerprint]bool{}
		for _, sample := range vec {
			b := labels.NewBuilder(sample.Labels)
			b.Set("alertname", cr.rule.Name)
			for k, v := range cr.rule.Labels {
				b.Set(k, v)
			}
			alertLbls := b.Labels()
			fp := alertLbls.Fingerprint()
			active[fp] = true
			st, ok := cr.state[fp]
			if !ok {
				st = &alertState{activeSince: now, labels: alertLbls}
				cr.state[fp] = st
			}
			st.value = sample.V
			if !st.firing && now.Sub(st.activeSince) >= cr.rule.For {
				st.firing = true
				sent = append(sent, buildAlert(cr.rule, st, now, time.Time{}))
				r.firedVec.With(cr.rule.Name).Inc()
				r.traceFire(cr, st, now, now.Add(time.Since(t0)))
			}
		}
		// Series that stopped matching: resolve if firing, forget otherwise.
		for fp, st := range cr.state {
			if active[fp] {
				continue
			}
			if st.firing {
				sent = append(sent, buildAlert(cr.rule, st, st.activeSince, now))
			}
			delete(cr.state, fp)
		}
		r.ruleDur.With(cr.rule.Name).Observe(time.Since(rt0).Seconds())
	}
	if len(sent) > 0 {
		r.notifier.Receive(sent...)
	}
	return sent, errors.Join(errs...)
}

// traceFire records the timed fire span on the originating event's
// trace. When no trace exists for the key (log-derived alerts with no
// Redfish origin, meta-alerts about the pipeline itself) it mints one at
// fire time so downstream delivery spans and latency close-out still
// have a home.
func (r *Ruler) traceFire(cr compiledRule, st *alertState, now, end time.Time) {
	key := traceKey(st.labels)
	stage := r.component + ".fire"
	id := r.tracer.SpanByKey(key, stage, now, end, cr.rule.Name)
	if id == "" && key != "" {
		id = r.tracer.Start(key, now, r.component+":"+cr.rule.Name)
		r.tracer.Span(id, stage, now, end, cr.rule.Name)
	}
	if cr.det != nil && id != "" {
		r.tracer.Span(id, "anomaly.detect", st.activeSince, end,
			fmt.Sprintf("%s %+.1fσ (%s)", cr.rule.Name, st.value, cr.det.Config().Method))
	}
}

func buildAlert(rule Rule, st *alertState, startsAt, endsAt time.Time) alertmanager.Alert {
	ann := make(map[string]string, len(rule.Annotations))
	for k, v := range rule.Annotations {
		ann[k] = ExpandTemplate(v, st.labels, st.value)
	}
	return alertmanager.Alert{
		Labels:      st.labels,
		Annotations: ann,
		StartsAt:    startsAt,
		EndsAt:      endsAt,
	}
}

// Pending reports, for tests and dashboards, how many alert series are
// active (pending or firing) for the named rule.
func (r *Ruler) Pending(ruleName string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, cr := range r.rules {
		if cr.rule.Name == ruleName {
			return len(cr.state)
		}
	}
	return 0
}
