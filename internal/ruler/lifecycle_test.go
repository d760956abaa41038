package ruler_test

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"shastamon/internal/alertmanager"
	"shastamon/internal/anomaly"
	"shastamon/internal/frontend"
	"shastamon/internal/labels"
	"shastamon/internal/logql"
	"shastamon/internal/loki"
	"shastamon/internal/obs"
	"shastamon/internal/promql"
	"shastamon/internal/ruler"
	"shastamon/internal/tsdb"
	"shastamon/internal/vmalert"
)

// The rule lifecycle exists once, so it is tested once — against both
// bindings. Each binding stores a "sensor" signal, one series per
// (xname, zone="front"), in its own warehouse: as log lines counted over
// the last 30s for the Ruler, as a gauge for vmalert. Rounds are a
// minute apart, so a round's reading is exactly what set wrote for it.
type binding struct {
	component string
	expr      string // one sample per series whose reading is > 0
	watchExpr string // every series' reading, for anomaly rules
	badExpr   string
	// open returns an evaluator over an empty store and the function
	// that writes a series' reading for the round at `at`.
	open func(n ruler.Notifier, now func() time.Time, rules ...ruler.Rule) (*ruler.Ruler, func(xname string, at time.Time, v int), error)
}

var bindings = []binding{
	{
		component: "ruler",
		expr:      `sum(count_over_time({app="sensor"}[30s])) by (xname, zone) > 0`,
		watchExpr: `sum(count_over_time({app="sensor"}[30s])) by (xname, zone)`,
		badExpr:   `{app="sensor"}`, // a log query, not a metric query
		open: func(n ruler.Notifier, now func() time.Time, rules ...ruler.Rule) (*ruler.Ruler, func(string, time.Time, int), error) {
			store := loki.NewStore(loki.DefaultLimits())
			ev, err := ruler.New(logql.NewEngine(store), n, now, rules...)
			return ev, func(xname string, at time.Time, v int) {
				entries := make([]loki.Entry, v)
				for i := range entries {
					entries[i] = loki.Entry{Timestamp: at.UnixNano() - int64(v-1-i), Line: fmt.Sprintf("reading %d", i)}
				}
				ls := labels.FromStrings("app", "sensor", "xname", xname, "zone", "front")
				if err := store.Push([]loki.PushStream{{Labels: ls, Entries: entries}}); err != nil {
					panic(err)
				}
			}, err
		},
	},
	{
		component: "vmalert",
		expr:      `sensor > 0`,
		watchExpr: `sensor`,
		badExpr:   `((((`,
		open: func(n ruler.Notifier, now func() time.Time, rules ...ruler.Rule) (*ruler.Ruler, func(string, time.Time, int), error) {
			db := tsdb.New()
			ev, err := vmalert.New(promql.NewEngine(db), n, now, rules...)
			return ev, func(xname string, at time.Time, v int) {
				ls := labels.FromStrings("xname", xname, "zone", "front")
				if err := db.AppendMetric("sensor", ls, at.UnixMilli(), float64(v)); err != nil {
					panic(err)
				}
			}, err
		},
	},
}

var t0 = time.Date(2022, 3, 3, 1, 0, 0, 0, time.UTC)

// harness drives one evaluator through rounds a minute apart.
type harness struct {
	t   *testing.T
	ev  *ruler.Ruler
	n   *fakeNotifier
	ck  *clock
	set func(xname string, at time.Time, v int)
}

func eachBinding(t *testing.T, fn func(t *testing.T, b binding)) {
	for _, b := range bindings {
		t.Run(b.component, func(t *testing.T) { fn(t, b) })
	}
}

func (b binding) start(t *testing.T, rules ...ruler.Rule) *harness {
	t.Helper()
	h := &harness{t: t, n: &fakeNotifier{}, ck: &clock{t: t0}}
	var err error
	if h.ev, h.set, err = b.open(h.n, h.ck.Now, rules...); err != nil {
		t.Fatal(err)
	}
	return h
}

// round writes the readings at the current time, evaluates, and steps
// the clock to the next round. It returns the alerts sent and the time
// they were evaluated at.
func (h *harness) round(readings map[string]int) ([]alertmanager.Alert, time.Time) {
	h.t.Helper()
	at := h.ck.Now()
	for xname, v := range readings {
		h.set(xname, at, v)
	}
	sent, err := h.ev.EvalOnce()
	if err != nil {
		h.t.Fatal(err)
	}
	h.ck.Advance(time.Minute)
	return sent, at
}

func byXname(alerts []alertmanager.Alert) map[string]alertmanager.Alert {
	m := map[string]alertmanager.Alert{}
	for _, a := range alerts {
		m[a.Labels.Get("xname")] = a
	}
	return m
}

// pending → firing once for: has elapsed → steady → resolved with EndsAt;
// rule labels override sample labels, alertname is set, annotations
// expand against the alert's labels and value, and the self-metrics count.
func TestRuleLifecycle(t *testing.T) {
	eachBinding(t, func(t *testing.T, b binding) {
		h := b.start(t, ruler.Rule{
			Name:        "SensorHigh",
			Expr:        b.expr,
			For:         90 * time.Second,
			Labels:      map[string]string{"severity": "critical", "zone": "override"},
			Annotations: map[string]string{"summary": "{{ $labels.xname }} in {{ $labels.zone }} reads {{ $value }}"},
		})
		for i, v := range []int{2, 2} {
			if sent, _ := h.round(map[string]int{"x1": v}); len(sent) != 0 {
				t.Fatalf("round %d fired before for: %+v", i, sent)
			}
			if h.ev.Pending("SensorHigh") != 1 {
				t.Fatalf("round %d: no pending state", i)
			}
		}
		sent, at := h.round(map[string]int{"x1": 3})
		if len(sent) != 1 {
			t.Fatalf("after for: sent %+v", sent)
		}
		a := sent[0]
		if a.Name() != "SensorHigh" || a.Labels.Get("severity") != "critical" ||
			a.Labels.Get("zone") != "override" || a.Labels.Get("xname") != "x1" {
			t.Fatalf("labels: %v", a.Labels)
		}
		if !a.StartsAt.Equal(at) || !a.EndsAt.IsZero() {
			t.Fatalf("firing alert times: %v – %v, want %v – zero", a.StartsAt, a.EndsAt, at)
		}
		if got := a.Annotations["summary"]; got != "x1 in override reads 3" {
			t.Fatalf("annotation %q", got)
		}
		if len(h.n.alerts) != 1 {
			t.Fatalf("notifier got %+v", h.n.alerts)
		}
		// Steady state: the Alertmanager dedups, the evaluator does not resend.
		if sent, _ := h.round(map[string]int{"x1": 3}); len(sent) != 0 {
			t.Fatalf("refired: %+v", sent)
		}
		sent, at = h.round(map[string]int{"x1": 0})
		if len(sent) != 1 || !sent[0].Resolved(at) || !sent[0].EndsAt.Equal(at) || !sent[0].StartsAt.Equal(t0) {
			t.Fatalf("resolution at %v: %+v", at, sent)
		}
		if h.ev.Pending("SensorHigh") != 0 {
			t.Fatal("state not cleaned")
		}
		if len(h.n.alerts) != 2 {
			t.Fatalf("notifier got %+v", h.n.alerts)
		}
		fams := h.ev.Metrics().Gather()
		if got := obs.Value(fams, obs.Namespace+b.component+"_alerts_fired_total", "rule", "SensorHigh"); got != 1 {
			t.Fatalf("alerts_fired_total = %v", got)
		}
		if got := obs.Value(fams, obs.Namespace+b.component+"_evaluations_total"); got != 5 {
			t.Fatalf("evaluations_total = %v", got)
		}
	})
}

func TestPendingClearsWithoutFiring(t *testing.T) {
	eachBinding(t, func(t *testing.T, b binding) {
		h := b.start(t, ruler.Rule{Name: "SensorHigh", Expr: b.expr, For: 5 * time.Minute})
		h.round(map[string]int{"x1": 1})
		if h.ev.Pending("SensorHigh") != 1 {
			t.Fatal("no pending state")
		}
		sent, _ := h.round(map[string]int{"x1": 0})
		if len(sent) != 0 || len(h.n.alerts) != 0 || h.ev.Pending("SensorHigh") != 0 {
			t.Fatalf("pending alert leaked: sent %+v, pending %d", sent, h.ev.Pending("SensorHigh"))
		}
	})
}

// Each series of one rule holds, fires and resolves on its own clock.
func TestPerSeriesState(t *testing.T) {
	eachBinding(t, func(t *testing.T, b binding) {
		h := b.start(t, ruler.Rule{Name: "SensorHigh", Expr: b.expr, For: 90 * time.Second})
		h.round(map[string]int{"x1": 1})
		h.round(map[string]int{"x1": 1, "x2": 1})
		sent, _ := h.round(map[string]int{"x1": 1, "x2": 1})
		if got := byXname(sent); len(sent) != 1 || got["x1"].Name() != "SensorHigh" {
			t.Fatalf("x1 alone should fire: %+v", sent)
		}
		sent, at := h.round(map[string]int{"x1": 0, "x2": 1})
		got := byXname(sent)
		if len(sent) != 2 || !got["x1"].Resolved(at) || !got["x2"].EndsAt.IsZero() || !got["x2"].StartsAt.Equal(at) {
			t.Fatalf("want x1 resolved and x2 firing: %+v", sent)
		}
		if h.ev.Pending("SensorHigh") != 1 {
			t.Fatalf("pending = %d, want x2 only", h.ev.Pending("SensorHigh"))
		}
	})
}

func TestRuleValidation(t *testing.T) {
	eachBinding(t, func(t *testing.T, b binding) {
		for name, rules := range map[string][]ruler.Rule{
			"rule needs a name": {{Name: "", Expr: b.expr}},
			"duplicate rule":    {{Name: "x", Expr: b.expr}, {Name: "x", Expr: b.expr}},
			`rule "x"`:          {{Name: "x", Expr: b.badExpr}},
			`rule "y"`:          {{Name: "y", Expr: b.expr, Anomaly: &anomaly.Config{Method: "no-such-method"}}},
		} {
			_, _, err := b.open(&fakeNotifier{}, nil, rules...)
			if err == nil || !strings.HasPrefix(err.Error(), b.component+": "+name) {
				t.Errorf("%s: err = %v, want prefix %q", name, err, b.component+": "+name)
			}
		}
		if _, _, err := b.open(nil, nil); err == nil || !strings.HasPrefix(err.Error(), b.component+": ") {
			t.Errorf("nil notifier: err = %v", err)
		}
	})
	if _, err := ruler.New(nil, &fakeNotifier{}, nil); err == nil || !strings.HasPrefix(err.Error(), "ruler: ") {
		t.Errorf("ruler, nil engine: err = %v", err)
	}
	if _, err := vmalert.New(nil, &fakeNotifier{}, nil); err == nil || !strings.HasPrefix(err.Error(), "vmalert: ") {
		t.Errorf("vmalert, nil engine: err = %v", err)
	}
}

func stage(tr obs.Trace, name string) (obs.Stage, bool) {
	for _, s := range tr.Stages {
		if s.Stage == name {
			return s, true
		}
	}
	return obs.Stage{}, false
}

// The fire span joins the newest trace of the alert's correlation key,
// and mints a trace at fire time when the key has none.
func TestFireSpan(t *testing.T) {
	eachBinding(t, func(t *testing.T, b binding) {
		h := b.start(t, ruler.Rule{Name: "SensorHigh", Expr: b.expr})
		tracer := obs.NewTracer(0)
		h.ev.SetTracer(tracer)
		existing := tracer.Start("x1", t0.Add(-time.Second), "redfish event")
		sent, at := h.round(map[string]int{"x1": 1, "x2": 1})
		if len(sent) != 2 {
			t.Fatalf("sent %+v", sent)
		}
		minted := tracer.IDByKey("x2")
		if tracer.IDByKey("x1") != existing || minted == "" || minted == existing || tracer.Len() != 2 {
			t.Fatalf("traces: x1=%q (want %q) x2=%q of %d", tracer.IDByKey("x1"), existing, minted, tracer.Len())
		}
		for _, id := range []string{existing, minted} {
			tr, _ := tracer.Get(id)
			fire, ok := stage(tr, b.component+".fire")
			if !ok || fire.Note != "SensorHigh" || !fire.Time.Equal(at) || fire.End.Before(at) {
				t.Fatalf("trace %s: fire stage %+v in %v", id, fire, tr.StageNames())
			}
		}
		tr, _ := tracer.Get(minted)
		if origin, _ := stage(tr, "origin"); origin.Note != b.component+":SensorHigh" || !origin.Time.Equal(at) {
			t.Fatalf("minted origin: %+v", origin)
		}
	})
}

// An anomaly rule scores every sample of its selection but only the
// anomalous ones enter the hold; the alert's value is the signed score.
func TestAnomalyRule(t *testing.T) {
	cfg := anomaly.Config{MinSamples: 5, Sensitivity: 3}
	eachBinding(t, func(t *testing.T, b binding) {
		h := b.start(t, ruler.Rule{
			Name:        "SensorAnomaly",
			Expr:        b.watchExpr,
			Anomaly:     &cfg,
			Annotations: map[string]string{"score": "{{ $value }}"},
		})
		tracer := obs.NewTracer(0)
		h.ev.SetTracer(tracer)
		ref, err := anomaly.NewDetector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			v := 4 + i%3
			ref.Observe(1, h.ck.Now(), float64(v))
			if sent, _ := h.round(map[string]int{"x1": v}); len(sent) != 0 || h.ev.Pending("SensorAnomaly") != 0 {
				t.Fatalf("round %d: an ordinary reading entered the hold: %+v", i, sent)
			}
		}
		want := ref.Observe(1, h.ck.Now(), 60)
		if !want.Anomalous {
			t.Fatalf("reference detector does not flag the spike: %+v", want)
		}
		sent, _ := h.round(map[string]int{"x1": 60})
		if len(sent) != 1 || sent[0].Labels.Get("xname") != "x1" {
			t.Fatalf("spike: sent %+v", sent)
		}
		if got := sent[0].Annotations["score"]; got != strconv.FormatFloat(want.Score, 'g', -1, 64) {
			t.Fatalf("$value = %s, want the score %v (not the reading 60)", got, want.Score)
		}
		fams := h.ev.Metrics().Gather()
		for metric, v := range map[string]float64{
			"anomaly_evaluations_total":  11,
			"anomaly_detections_total":   1,
			"anomaly_score":              want.Score,
			"anomaly_series":             1,
			"anomaly_detector_saturated": 0,
		} {
			if got := obs.Value(fams, obs.Namespace+metric, "rule", "SensorAnomaly"); got != v {
				t.Errorf("%s = %v, want %v", metric, got, v)
			}
		}
		tr, _ := tracer.Get(tracer.IDByKey("x1"))
		if s, ok := stage(tr, "anomaly.detect"); !ok || !strings.Contains(s.Note, "SensorAnomaly +") || !strings.Contains(s.Note, "σ (zscore)") {
			t.Fatalf("anomaly.detect span: %+v in %v", s, tr.StageNames())
		}
		// Back to ordinary: the series leaves the vector and resolves.
		sent, at := h.round(map[string]int{"x1": 5})
		if len(sent) != 1 || !sent[0].Resolved(at) {
			t.Fatalf("after the spike: %+v", sent)
		}
	})
}

// The families each component's registry gathers, in exposition order,
// pinned to the lists the two separate implementations registered before
// they were merged; the anomaly_* five exist only when an anomaly rule
// does.
func TestRegisteredFamilies(t *testing.T) {
	eachBinding(t, func(t *testing.T, b binding) {
		names := func(rule ruler.Rule) []string {
			var out []string
			for _, f := range b.start(t, rule).ev.Metrics().Gather() {
				out = append(out, f.Name)
			}
			return out
		}
		want := []string{
			"shastamon_" + b.component + "_evaluations_total",
			"shastamon_" + b.component + "_evaluation_duration_seconds",
			"shastamon_" + b.component + "_alerts_fired_total",
			"shastamon_rule_eval_seconds",
		}
		if got := names(ruler.Rule{Name: "SensorHigh", Expr: b.expr}); !slices.Equal(got, want) {
			t.Errorf("threshold rule only:\n got %v\nwant %v", got, want)
		}
		want = append(want,
			"shastamon_anomaly_evaluations_total",
			"shastamon_anomaly_detections_total",
			"shastamon_anomaly_score",
			"shastamon_anomaly_series",
			"shastamon_anomaly_detector_saturated")
		if got := names(ruler.Rule{Name: "SensorAnomaly", Expr: b.watchExpr, Anomaly: &anomaly.Config{}}); !slices.Equal(got, want) {
			t.Errorf("with an anomaly rule:\n got %v\nwant %v", got, want)
		}
	})
}

// A rule whose query fails (byte budget, timeout, a full frontend queue)
// must cost only itself: alerts that fired earlier in the round are still
// delivered, later rules still evaluate, the failed rule neither resolves
// nor forgets its state, and the round reports every failure.
func TestFailingRuleDoesNotStarveOthers(t *testing.T) {
	for _, component := range []string{"ruler", "vmalert"} {
		t.Run(component, func(t *testing.T) {
			boom := errors.New("max bytes scanned")
			matching, failing := map[string]bool{"B": true}, ""
			compile := func(expr string) (ruler.QueryFunc, error) {
				return func(time.Time) (frontend.Vector, error) {
					switch {
					case expr == failing:
						return nil, boom
					case matching[expr]:
						return frontend.Vector{{Labels: labels.FromStrings("xname", "x"+expr), V: 1}}, nil
					}
					return nil, nil
				}, nil
			}
			n, ck := &fakeNotifier{}, &clock{t: t0}
			ev, err := ruler.NewEvaluator(component, compile, n, ck.Now,
				ruler.Rule{Name: "A", Expr: "A"}, ruler.Rule{Name: "B", Expr: "B"}, ruler.Rule{Name: "C", Expr: "C"})
			if err != nil {
				t.Fatal(err)
			}
			// Round 1: only B matches and fires.
			if sent, err := ev.EvalOnce(); err != nil || len(sent) != 1 || sent[0].Name() != "B" {
				t.Fatalf("round 1: %+v, %v", sent, err)
			}
			// Round 2: A and C start matching while B's query fails.
			matching, failing = map[string]bool{"A": true, "C": true}, "B"
			ck.Advance(time.Minute)
			sent, err := ev.EvalOnce()
			if !errors.Is(err, boom) || !strings.Contains(err.Error(), component+`: rule "B": `) {
				t.Fatalf("round 2 error = %v, want %s's rule B wrapping %v", err, component, boom)
			}
			if len(sent) != 2 || sent[0].Name() != "A" || sent[1].Name() != "C" || !sent[0].EndsAt.IsZero() || !sent[1].EndsAt.IsZero() {
				t.Fatalf("round 2 sent %+v, want A and C firing", sent)
			}
			if len(n.alerts) != 3 {
				t.Fatalf("notifier got %d alerts, want B then A and C", len(n.alerts))
			}
			if ev.Pending("B") != 1 {
				t.Fatal("the failed rule lost its state")
			}
			// Round 3: B's query works again and still matches — nothing
			// to say: B never resolved, A and C were delivered.
			matching, failing = map[string]bool{"B": true}, ""
			ck.Advance(time.Minute)
			sent, err = ev.EvalOnce()
			if err != nil {
				t.Fatal(err)
			}
			got := byXname(sent)
			if len(sent) != 2 || !got["xA"].Resolved(ck.Now()) || !got["xC"].Resolved(ck.Now()) {
				t.Fatalf("round 3 sent %+v, want only A and C resolving", sent)
			}
		})
	}
}
