package core

import (
	"strings"
	"testing"
	"time"

	"shastamon/internal/hms"
	"shastamon/internal/loki"
	"shastamon/internal/omni"
	"shastamon/internal/redfish"
	"shastamon/internal/ruler"
	"shastamon/internal/servicenow"
	"shastamon/internal/shasta"
	"shastamon/internal/syslogd"
	"shastamon/internal/vmalert"
)

func smallCluster() shasta.Config {
	return shasta.Config{
		Name: "perlmutter", Cabinets: []int{1002, 1203},
		ChassisPerCabinet: 2, BladesPerChassis: 1, NodesPerBMC: 1, SwitchesPerChassis: 8, Seed: 3,
	}
}

// The two rules of the paper's case studies.
var leakRule = ruler.Rule{
	Name:   "PerlmutterCabinetLeak",
	Expr:   `sum(count_over_time({data_type="redfish_event"} |= "CabinetLeakDetected" | json [60m])) by (severity, cluster, Context, message_id, message) > 0`,
	For:    time.Minute,
	Labels: map[string]string{"severity": "critical"},
	Annotations: map[string]string{
		"summary": "Liquid leak detected at {{ $labels.Context }}",
	},
}

var switchRule = ruler.Rule{
	Name:   "SwitchOffline",
	Expr:   `sum(count_over_time({app="fabric_manager_monitor"} |= "fm_switch_offline" | pattern "[<sev>] problem:<problem>, xname:<xname>, state:<state>" [5m])) by (sev, problem, xname, state) > 0`,
	For:    0,
	Labels: map[string]string{"severity": "critical"},
	Annotations: map[string]string{
		"summary": "switch {{ $labels.xname }} changed state to {{ $labels.state }}",
	},
}

func newPipeline(t *testing.T, opts Options) *Pipeline {
	t.Helper()
	if opts.Cluster.Name == "" {
		opts.Cluster = smallCluster()
	}
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func mustTick(t *testing.T, p *Pipeline, now time.Time) {
	t.Helper()
	if err := p.Tick(now); err != nil {
		t.Fatal(err)
	}
}

// Case study A: leak detection end-to-end — Redfish event through HMS,
// Kafka, the Telemetry API, Loki, the Ruler's LogQL rule, Alertmanager,
// and out to Slack and ServiceNow.
func TestCaseStudyALeakDetection(t *testing.T) {
	p := newPipeline(t, Options{LogRules: []ruler.Rule{leakRule}})
	t0 := time.Date(2022, 3, 3, 1, 46, 0, 0, time.UTC)
	mustTick(t, p, t0)

	leakTime := time.Date(2022, 3, 3, 1, 47, 57, 0, time.UTC)
	if err := p.Cluster.InjectLeak("x1203c1b0", "A", "Front", leakTime); err != nil {
		t.Fatal(err)
	}
	mustTick(t, p, leakTime)                     // event lands in Loki; rule pending
	mustTick(t, p, leakTime.Add(61*time.Second)) // for: 1m satisfied; alert to AM
	mustTick(t, p, leakTime.Add(62*time.Second)) // group_wait elapsed; notified

	// The event is queryable in Loki in its Fig. 3 form.
	streams, err := p.Warehouse.LogQL.QueryLogs(`{data_type="redfish_event"} |= "CabinetLeakDetected"`,
		leakTime.Add(-time.Minute).UnixNano(), leakTime.Add(time.Minute).UnixNano())
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != 1 || streams[0].Labels.Get("Context") != "x1203c1b0" {
		t.Fatalf("loki streams: %+v", streams)
	}

	// Slack got the enriched alert (Fig. 6).
	msgs := p.Slack.Messages()
	if len(msgs) == 0 {
		t.Fatal("no slack message")
	}
	found := false
	for _, m := range msgs {
		for _, att := range m.Attachments {
			if att.Title == "PerlmutterCabinetLeak" && strings.Contains(att.Text, "x1203c1b0") {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("slack messages: %+v", msgs)
	}

	// ServiceNow correlated the event into an alert and opened an incident
	// bound to the chassis CI.
	alerts := p.ServiceNow.Alerts()
	if len(alerts) != 1 || alerts[0].Node != "x1203c1b0" || alerts[0].CI != "x1203c1b0" {
		t.Fatalf("sn alerts: %+v", alerts)
	}
	incs := p.ServiceNow.Incidents()
	if len(incs) != 1 || incs[0].Priority != servicenow.SeverityCritical {
		t.Fatalf("sn incidents: %+v", incs)
	}
	if !strings.Contains(incs[0].Description, "x1203c1b0") {
		t.Fatalf("incident description: %q", incs[0].Description)
	}
}

// Case study B: switch offline detection — fabric manager API poll, the
// Fig. 7 event format in Loki, the Fig. 8 pattern rule, Slack (Fig. 9).
func TestCaseStudyBSwitchOffline(t *testing.T) {
	p := newPipeline(t, Options{LogRules: []ruler.Rule{switchRule}})
	t0 := time.Date(2022, 3, 3, 2, 0, 0, 0, time.UTC)
	mustTick(t, p, t0) // primes the fabric monitor baseline

	if err := p.Cluster.SetSwitchState("x1002c1r7b0", shasta.SwitchUnknown); err != nil {
		t.Fatal(err)
	}
	t1 := t0.Add(time.Minute)
	mustTick(t, p, t1)                  // monitor emits event; rule fires
	mustTick(t, p, t1.Add(time.Second)) // notification flushed

	// The exact Fig. 7 line is in Loki under app/cluster labels.
	streams, err := p.Warehouse.LogQL.QueryLogs(`{app="fabric_manager_monitor"}`,
		t0.UnixNano(), t1.Add(time.Minute).UnixNano())
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != 1 {
		t.Fatalf("streams: %+v", streams)
	}
	wantLine := "[critical] problem:fm_switch_offline, xname:x1002c1r7b0, state:UNKNOWN"
	if streams[0].Entries[0].Line != wantLine {
		t.Fatalf("line: %q", streams[0].Entries[0].Line)
	}
	if streams[0].Labels.Get("cluster") != "perlmutter" {
		t.Fatalf("labels: %v", streams[0].Labels)
	}

	// Slack notification carries the pattern-extracted fields (Fig. 9).
	msgs := p.Slack.Messages()
	if len(msgs) == 0 {
		t.Fatal("no slack message")
	}
	var text string
	for _, m := range msgs {
		for _, att := range m.Attachments {
			if att.Title == "SwitchOffline" {
				text = att.Text
			}
		}
	}
	for _, want := range []string{"x1002c1r7b0", "UNKNOWN", "fm_switch_offline"} {
		if !strings.Contains(text, want) {
			t.Fatalf("slack text missing %q:\n%s", want, text)
		}
	}

	// ServiceNow opened an incident against the switch CI.
	incs := p.ServiceNow.Incidents()
	if len(incs) != 1 || incs[0].CI != "x1002c1r7b0" {
		t.Fatalf("incidents: %+v", incs)
	}
}

// Sensor telemetry flows Kafka -> Telemetry API -> TSDB and is queryable
// with PromQL; exporter metrics flow through vmagent.
func TestMetricsPath(t *testing.T) {
	p := newPipeline(t, Options{MetricRules: []vmalert.Rule{{
		Name: "KafkaAlive",
		Expr: `kafka_broker_messages_total > 0`,
	}}})
	t0 := time.Date(2022, 3, 3, 3, 0, 0, 0, time.UTC)
	mustTick(t, p, t0)
	mustTick(t, p, t0.Add(30*time.Second))

	ms := t0.Add(30 * time.Second).UnixMilli()
	vec, err := p.Warehouse.PromQL.Query(`cray_telemetry_temperature`, ms)
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != 4 { // 4 nodes in smallCluster
		t.Fatalf("temperature series: %d", len(vec))
	}
	if vec[0].Labels.Get("xname") == "" || vec[0].Labels.Get("unit") != "Cel" {
		t.Fatalf("labels: %v", vec[0].Labels)
	}
	// Exporter path: up{job="node"} == 1 and kafka counters present.
	// 4 targets: node, kafka, aruba, plus the pipeline's own shastamon
	// self-monitoring endpoint.
	vec, err = p.Warehouse.PromQL.Query(`up`, ms)
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != 4 {
		t.Fatalf("up: %+v", vec)
	}
	vec, err = p.Warehouse.PromQL.Query(`kafka_broker_messages_total`, ms)
	if err != nil || len(vec) != 1 || vec[0].V == 0 {
		t.Fatalf("kafka metric: %+v %v", vec, err)
	}
}

// Syslog flows through the aggregator, Kafka, the Telemetry API, and is
// queryable in Loki — the paper's immediate future work.
func TestSyslogPath(t *testing.T) {
	p := newPipeline(t, Options{})
	t0 := time.Date(2022, 3, 3, 4, 0, 0, 0, time.UTC)
	m := syslogd.GPFSDiskFailure("nid001234", 1, 7, t0)
	if err := p.SyslogAggregator.Ingest(m); err != nil {
		t.Fatal(err)
	}
	mustTick(t, p, t0.Add(time.Second))
	streams, err := p.Warehouse.LogQL.QueryLogs(`{data_type="syslog", app="mmfs"} |= "Disk failure"`,
		t0.Add(-time.Minute).UnixNano(), t0.Add(time.Minute).UnixNano())
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != 1 || streams[0].Labels.Get("hostname") != "nid001234" {
		t.Fatalf("streams: %+v", streams)
	}
}

func TestRedfishToLokiFig3(t *testing.T) {
	ts := time.Date(2022, 3, 3, 1, 47, 57, 0, time.UTC)
	payload := redfish.NewPayload(redfish.Record{
		Context: "x1102c4s0b0",
		Events:  []redfish.Event{redfish.LeakEvent(ts, "A", "Front")},
	})
	streams, err := RedfishToLoki(payload, "perlmutter")
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != 1 {
		t.Fatalf("%+v", streams)
	}
	s := streams[0]
	// Fig. 3: stream labels are Context, cluster, data_type.
	if s.Labels.Get("Context") != "x1102c4s0b0" || s.Labels.Get("cluster") != "perlmutter" || s.Labels.Get("data_type") != "redfish_event" {
		t.Fatalf("labels: %v", s.Labels)
	}
	if len(s.Labels) != 3 {
		t.Fatalf("extra labels (chunk explosion risk): %v", s.Labels)
	}
	// Timestamp is a ns epoch; 2022-03-03T01:47:57Z = 1646272077e9.
	if s.Entries[0].Timestamp != 1646272077000000000 {
		t.Fatalf("ts: %d", s.Entries[0].Timestamp)
	}
	// Body keeps exactly Severity, MessageId, Message in order.
	line := s.Entries[0].Line
	if !strings.HasPrefix(line, `{"Severity":"Warning","MessageId":"CrayAlerts.1.0.CabinetLeakDetected","Message":`) {
		t.Fatalf("line: %s", line)
	}
	if strings.Contains(line, "OriginOfCondition") || strings.Contains(line, "MessageArgs") {
		t.Fatalf("dropped fields leaked: %s", line)
	}
}

func TestRedfishToLokiBadTimestamp(t *testing.T) {
	payload := redfish.NewPayload(redfish.Record{
		Context: "x1",
		Events:  []redfish.Event{{EventTimestamp: "not-a-time"}},
	})
	if _, err := RedfishToLoki(payload, "c"); err == nil {
		t.Fatal("bad timestamp accepted")
	}
}

func TestSensorToMetric(t *testing.T) {
	s := hms.SensorSample{
		Context: "x1000c0s0b0n0", PhysicalContext: "CPU", Sensor: "Temperature",
		Value: 45.5, Unit: "Cel", Timestamp: "2022-03-03T01:47:57Z",
	}
	name, ls, ms, v, err := SensorToMetric(s)
	if err != nil {
		t.Fatal(err)
	}
	if name != "cray_telemetry_temperature" || v != 45.5 || ms != 1646272077000 {
		t.Fatalf("%s %v %d", name, v, ms)
	}
	if ls.Get("xname") != "x1000c0s0b0n0" {
		t.Fatalf("%v", ls)
	}
	s.Timestamp = "garbage"
	if _, _, _, _, err := SensorToMetric(s); err == nil {
		t.Fatal("bad ts accepted")
	}
}

func TestSyslogToLoki(t *testing.T) {
	m := syslogd.Message{
		Facility: 1, Severity: 2, Hostname: "nid000001", App: "mmfs",
		Text: "GPFS: Disk failure", Timestamp: time.Unix(100, 0).UTC(),
	}
	ps := SyslogToLoki(m, "perlmutter")
	if ps.Labels.Get("severity") != "crit" || ps.Labels.Get("app") != "mmfs" {
		t.Fatalf("%v", ps.Labels)
	}
	if ps.Entries[0].Line != "GPFS: Disk failure" || ps.Entries[0].Timestamp != 100e9 {
		t.Fatalf("%+v", ps.Entries)
	}
}

// A resolved leak (window expiry) resolves through the pipeline: Slack
// gets a resolved notification and ServiceNow auto-resolves the incident.
func TestLeakResolutionFlows(t *testing.T) {
	rule := leakRule
	rule.For = 0
	p := newPipeline(t, Options{LogRules: []ruler.Rule{rule}})
	leakTime := time.Date(2022, 3, 3, 1, 47, 57, 0, time.UTC)
	mustTick(t, p, leakTime.Add(-time.Minute))
	if err := p.Cluster.InjectLeak("x1203c1b0", "A", "Front", leakTime); err != nil {
		t.Fatal(err)
	}
	mustTick(t, p, leakTime)
	mustTick(t, p, leakTime.Add(time.Second)) // firing notified
	// 61 minutes later the 60m window has drained: rule resolves.
	mustTick(t, p, leakTime.Add(61*time.Minute))
	mustTick(t, p, leakTime.Add(61*time.Minute+time.Second))

	incs := p.ServiceNow.Incidents()
	if len(incs) != 1 || incs[0].State != servicenow.IncidentResolved {
		t.Fatalf("incident not auto-resolved: %+v", incs)
	}
	resolved := false
	for _, m := range p.Slack.Messages() {
		if strings.Contains(m.Text, "RESOLVED") {
			resolved = true
		}
	}
	if !resolved {
		t.Fatalf("no resolved slack message: %+v", p.Slack.Messages())
	}
}

// Retention: data older than the horizon is dropped on Tick.
func TestRetentionOnTick(t *testing.T) {
	p := newPipeline(t, Options{Warehouse: omni.Config{Retention: time.Hour}})
	t0 := time.Date(2022, 3, 3, 0, 0, 0, 0, time.UTC)
	_ = p.Warehouse.IngestLogs([]loki.PushStream{{
		Labels:  FabricEventLabels("perlmutter"),
		Entries: []loki.Entry{{Timestamp: t0.UnixNano(), Line: "old"}},
	}})
	// Force the head chunk old enough then tick far in the future.
	mustTick(t, p, t0.Add(3*time.Hour))
	streams, err := p.Warehouse.LogQL.QueryLogs(`{app="fabric_manager_monitor"}`, 0, t0.Add(4*time.Hour).UnixNano())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range streams {
		for _, e := range s.Entries {
			if e.Line == "old" {
				t.Fatal("expired entry survived retention")
			}
		}
	}
}

// LDMS metrics flow Kafka -> Telemetry API -> TSDB (the LDMS source of
// Fig. 1).
func TestLDMSPath(t *testing.T) {
	p := newPipeline(t, Options{})
	t0 := time.Date(2022, 3, 3, 11, 0, 0, 0, time.UTC)
	mustTick(t, p, t0)
	mustTick(t, p, t0.Add(10*time.Second))
	ms := t0.Add(10 * time.Second).UnixMilli()
	vec, err := p.Warehouse.PromQL.Query(`ldms_meminfo_MemFree`, ms)
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != 4 { // all 4 nodes of smallCluster sampled
		t.Fatalf("series: %d", len(vec))
	}
	if vec[0].Labels.Get("sampler") != "meminfo" || vec[0].Labels.Get("xname") == "" {
		t.Fatalf("%v", vec[0].Labels)
	}
	// Counters work with rate().
	vec, err = p.Warehouse.PromQL.Query(`rate(ldms_procnetdev_rx_bytes[1m])`, ms)
	if err != nil || len(vec) != 4 {
		t.Fatalf("rate: %+v %v", vec, err)
	}
}
