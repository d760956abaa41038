package vmalert

import (
	"testing"
	"time"

	"shastamon/internal/alertmanager"
	"shastamon/internal/labels"
	"shastamon/internal/promql"
	"shastamon/internal/tsdb"
)

// The rule lifecycle is tested once for both bindings in package ruler;
// these are the paper's metric-rule shapes evaluated through PromQL.

type fakeNotifier struct{ alerts []alertmanager.Alert }

func (f *fakeNotifier) Receive(alerts ...alertmanager.Alert) { f.alerts = append(f.alerts, alerts...) }

type clock struct{ t time.Time }

func (c *clock) Now() time.Time          { return c.t }
func (c *clock) Advance(d time.Duration) { c.t = c.t.Add(d) }

func setup(t *testing.T, rules ...Rule) (*tsdb.DB, *VMAlert, *fakeNotifier, *clock) {
	t.Helper()
	db := tsdb.New()
	n := &fakeNotifier{}
	ck := &clock{t: time.Date(2022, 3, 3, 1, 0, 0, 0, time.UTC)}
	v, err := New(promql.NewEngine(db), n, ck.Now, rules...)
	if err != nil {
		t.Fatal(err)
	}
	return db, v, n, ck
}

func TestTemperatureAlertLifecycle(t *testing.T) {
	rule := Rule{
		Name:        "NodeOverTemp",
		Expr:        `node_temp_celsius > 75`,
		For:         time.Minute,
		Labels:      map[string]string{"severity": "critical"},
		Annotations: map[string]string{"summary": "{{ $labels.xname }} at {{ $value }}C"},
	}
	db, v, n, ck := setup(t, rule)
	hot := labels.FromStrings("xname", "x1000c0s0b0n0")

	// Hot sample appears.
	_ = db.AppendMetric("node_temp_celsius", hot, ck.Now().UnixMilli(), 90)
	sent, err := v.EvalOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(sent) != 0 {
		t.Fatalf("fired before for: %+v", sent)
	}
	// Still hot a minute later.
	ck.Advance(61 * time.Second)
	_ = db.AppendMetric("node_temp_celsius", hot, ck.Now().UnixMilli(), 91)
	sent, err = v.EvalOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(sent) != 1 {
		t.Fatalf("sent: %+v", sent)
	}
	a := sent[0]
	if a.Name() != "NodeOverTemp" || a.Labels.Get("severity") != "critical" {
		t.Fatalf("%+v", a)
	}
	if a.Annotations["summary"] != "x1000c0s0b0n0 at 91C" {
		t.Fatalf("annotation %q", a.Annotations["summary"])
	}
	// Cooldown: value drops below threshold -> resolution.
	ck.Advance(time.Minute)
	_ = db.AppendMetric("node_temp_celsius", hot, ck.Now().UnixMilli(), 50)
	sent, err = v.EvalOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(sent) != 1 || !sent[0].Resolved(ck.Now()) {
		t.Fatalf("resolve: %+v", sent)
	}
	if len(n.alerts) != 2 {
		t.Fatalf("notifier: %d", len(n.alerts))
	}
}

func TestUpZeroAlert(t *testing.T) {
	rule := Rule{Name: "TargetDown", Expr: `up == 0`, For: 0}
	db, v, _, ck := setup(t, rule)
	_ = db.AppendMetric("up", labels.FromStrings("job", "node", "instance", "http://a/metrics"), ck.Now().UnixMilli(), 0)
	_ = db.AppendMetric("up", labels.FromStrings("job", "node", "instance", "http://b/metrics"), ck.Now().UnixMilli(), 1)
	sent, err := v.EvalOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(sent) != 1 || sent[0].Labels.Get("instance") != "http://a/metrics" {
		t.Fatalf("%+v", sent)
	}
}

func TestAbsentRule(t *testing.T) {
	rule := Rule{Name: "NoTelemetry", Expr: `absent(node_temp_celsius{xname="x9"})`, For: 0}
	_, v, _, _ := setup(t, rule)
	sent, err := v.EvalOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(sent) != 1 || sent[0].Labels.Get("xname") != "x9" {
		t.Fatalf("%+v", sent)
	}
}
