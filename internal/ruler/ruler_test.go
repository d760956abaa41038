package ruler_test

import (
	"testing"
	"time"

	"shastamon/internal/alertmanager"
	"shastamon/internal/labels"
	"shastamon/internal/logql"
	"shastamon/internal/loki"
	"shastamon/internal/ruler"
)

// fakeNotifier records what an evaluator delivered.
type fakeNotifier struct{ alerts []alertmanager.Alert }

func (f *fakeNotifier) Receive(alerts ...alertmanager.Alert) { f.alerts = append(f.alerts, alerts...) }

type clock struct{ t time.Time }

func (c *clock) Now() time.Time          { return c.t }
func (c *clock) Advance(d time.Duration) { c.t = c.t.Add(d) }

// The paper's leak alerting rule: "if the return value is greater than
// zero and it lasts more than one minute, an alert will be generated".
const leakRuleExpr = `sum(count_over_time({data_type="redfish_event"} |= "CabinetLeakDetected" | json [60m])) by (severity, cluster, Context, message_id, message) > 0`

func TestLeakRuleFiresAfterFor(t *testing.T) {
	rule := ruler.Rule{
		Name:   "PerlmutterCabinetLeak",
		Expr:   leakRuleExpr,
		For:    time.Minute,
		Labels: map[string]string{"team": "operations"},
		Annotations: map[string]string{
			"summary": "Leak at {{ $labels.Context }} ({{ $value }} events)",
		},
	}
	store := loki.NewStore(loki.DefaultLimits())
	n := &fakeNotifier{}
	ck := &clock{t: time.Date(2022, 3, 3, 1, 47, 0, 0, time.UTC)}
	r, err := ruler.New(logql.NewEngine(store), n, ck.Now, rule)
	if err != nil {
		t.Fatal(err)
	}

	// Push the paper's leak event.
	ls := labels.FromStrings("Context", "x1203c1b0", "cluster", "perlmutter", "data_type", "redfish_event")
	line := `{"Severity":"Warning","MessageId":"CrayAlerts.1.0.CabinetLeakDetected","Message":"Sensor 'A' of the redundant leak sensors in the 'Front' cabinet zone has detected a leak."}`
	if err := store.Push([]loki.PushStream{{Labels: ls, Entries: []loki.Entry{{Timestamp: ck.Now().UnixNano(), Line: line}}}}); err != nil {
		t.Fatal(err)
	}

	// First eval: condition true but held by for: 1m.
	sent, err := r.EvalOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(sent) != 0 {
		t.Fatalf("fired before for: %+v", sent)
	}
	if r.Pending("PerlmutterCabinetLeak") != 1 {
		t.Fatal("no pending state")
	}

	// After >1m of persistence, it fires.
	ck.Advance(61 * time.Second)
	sent, err = r.EvalOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(sent) != 1 {
		t.Fatalf("sent: %+v", sent)
	}
	a := sent[0]
	if a.Name() != "PerlmutterCabinetLeak" || a.Labels.Get("team") != "operations" {
		t.Fatalf("labels: %v", a.Labels)
	}
	if a.Labels.Get("Context") != "x1203c1b0" || a.Labels.Get("severity") != "Warning" {
		t.Fatalf("sample labels lost: %v", a.Labels)
	}
	if a.Annotations["summary"] != "Leak at x1203c1b0 (1 events)" {
		t.Fatalf("annotation: %q", a.Annotations["summary"])
	}
	if len(n.alerts) != 1 {
		t.Fatalf("notifier: %+v", n.alerts)
	}

	// Steady state: no renotification from the ruler (Alertmanager dedups).
	ck.Advance(time.Minute)
	sent, _ = r.EvalOnce()
	if len(sent) != 0 {
		t.Fatalf("refired: %+v", sent)
	}
}

func TestExpandTemplate(t *testing.T) {
	ls := labels.FromStrings("xname", "x1002c1r7b0", "state", "UNKNOWN")
	got := ruler.ExpandTemplate("switch {{ $labels.xname }} went {{ $labels.state }} (value {{ $value }})", ls, 1)
	want := "switch x1002c1r7b0 went UNKNOWN (value 1)"
	if got != want {
		t.Fatalf("got %q", got)
	}
	// Unknown labels expand to empty.
	if ruler.ExpandTemplate("{{ $labels.none }}", ls, 0) != "" {
		t.Fatal("unknown label not empty")
	}
}
