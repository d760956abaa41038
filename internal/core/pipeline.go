package core

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"shastamon/internal/alertmanager"
	"shastamon/internal/anomaly"
	"shastamon/internal/chaos"
	"shastamon/internal/chunkenc"
	"shastamon/internal/exporters"
	"shastamon/internal/fabricmgr"
	"shastamon/internal/hms"
	"shastamon/internal/kafka"
	"shastamon/internal/labels"
	"shastamon/internal/ldms"
	"shastamon/internal/loki"
	"shastamon/internal/obs"
	"shastamon/internal/omni"
	"shastamon/internal/promtext"
	"shastamon/internal/redfish"
	"shastamon/internal/ruler"
	"shastamon/internal/servicenow"
	"shastamon/internal/shasta"
	"shastamon/internal/slack"
	"shastamon/internal/syslogd"
	"shastamon/internal/telemetry"
	"shastamon/internal/vmagent"
	"shastamon/internal/vmalert"
)

// Options configure a Pipeline. Zero values take the defaults documented
// on each field.
type Options struct {
	// Cluster sizes the simulated Shasta system; zero takes
	// shasta.DefaultConfig.
	Cluster shasta.Config
	// Token is the telemetry API bearer token ("" disables auth).
	Token string
	// Warehouse configures the OMNI warehouse: retention, the log store's
	// limits, the durable directory and its WALs, the query frontend,
	// per-tenant limits and the per-query limits. New defaults Retention
	// to two years (OMNI's horizon) and wires the pipeline clock into
	// WAL.Now and Frontend.Now unless they are set, so breaker windows
	// and mutable-head freshness track simulated time in experiments.
	Warehouse omni.Config
	// LogRules are Loki Ruler alerting rules.
	LogRules []ruler.Rule
	// MetricRules are vmalert alerting rules.
	MetricRules []vmalert.Rule
	// Route overrides the default Alertmanager routing tree (slack for
	// everything; critical alerts additionally to ServiceNow).
	Route *alertmanager.Route
	// Inhibit rules mute dependent alerts while their cause fires — the
	// paper's "reduction in noise caused by multiple alerts from the same
	// events". Example: a chassis power alert inhibiting the switch
	// alerts of the same chassis.
	Inhibit []alertmanager.InhibitRule
	// GroupWait for the default route (default 0 for responsive tests).
	GroupWait time.Duration
	// Chaos, when set, wires the fault injector into the pipeline's
	// dependency boundaries: kafka produces ("kafka.produce"), the
	// telemetry API transport ("telemetry.http"), warehouse ingestion
	// ("warehouse.ingest"), and the notifier transports ("slack.http",
	// "servicenow.http"). Nil runs fault-free.
	Chaos *chaos.Injector
	// SLO is the detection-latency objective end-to-end latencies are
	// held to; zero fields take obs.DefaultSLO (95% within 90s).
	SLO obs.SLOConfig
	// MetaAlerts, when true, appends the built-in MetaRules() pack to the
	// vmalert rules: the pipeline alerting on its own health (SLO burn,
	// breakers stuck open, DLQ growth, stage errors, scrape staleness)
	// through the same Alertmanager -> Slack path as hardware alerts.
	MetaAlerts bool
	// TenantTokens maps bearer tokens to tenant IDs on the telemetry
	// API, alongside the single shared Token. Empty adds none.
	TenantTokens map[string]string
}

// Pipeline is the assembled monitoring framework of Fig. 1.
type Pipeline struct {
	Cluster   *shasta.Cluster
	Broker    *kafka.Broker
	Collector *hms.Collector
	Warehouse *omni.Warehouse

	FabricManager *fabricmgr.Manager
	FabricMonitor *fabricmgr.Monitor

	SyslogAggregator *syslogd.Aggregator
	LDMS             *ldms.Producer

	NodeExporter  *exporters.NodeExporter
	KafkaExporter *exporters.KafkaExporter
	ArubaExporter *exporters.ArubaExporter
	VMAgent       *vmagent.Agent

	Ruler        *ruler.Ruler
	VMAlert      *vmalert.VMAlert
	Alertmanager *alertmanager.Manager

	Slack      *slack.Webhook
	ServiceNow *servicenow.Instance

	// Tracer records per-event traces across pipeline stages; its handler
	// is mounted at /debug/trace/ on the observability endpoint.
	Tracer *obs.Tracer

	// Templates is the Drain-style log-template miner fed from the syslog
	// ingest path; its per-template rate series reach the TSDB via the
	// vmagent "shastamon" self-scrape, and /debug/templates lists the
	// mined patterns.
	Templates *anomaly.Miner

	Telemetry     *telemetry.Server
	slackNotifier *slack.Notifier
	snNotifier    *servicenow.Notifier
	obsURL        string
	obsReg        *obs.Registry
	tickDur       *obs.Histogram
	stageDur      *obs.HistogramVec
	forwardedCtr  *obs.Counter
	stageErrCtr   *obs.CounterVec
	dlqCtr        *obs.CounterVec
	tickFailCtr   *obs.Counter
	detectLatency *obs.HistogramVec
	slo           *obs.SLO
	tmplLines     *obs.CounterVec
	tmplNovel     *obs.Counter

	subEvents  *telemetry.Subscription
	subSensors *telemetry.Subscription
	subSyslog  *telemetry.Subscription
	subLDMS    *telemetry.Subscription

	servers   []*http.Server
	closeOnce sync.Once

	clockMu sync.Mutex
	current time.Time
}

// Now returns the pipeline clock: the time set by SetNow (deterministic
// experiment mode), or the wall clock.
func (p *Pipeline) Now() time.Time {
	p.clockMu.Lock()
	defer p.clockMu.Unlock()
	if p.current.IsZero() {
		return time.Now()
	}
	return p.current
}

// SetNow pins the pipeline clock for deterministic runs.
func (p *Pipeline) SetNow(t time.Time) {
	p.clockMu.Lock()
	p.current = t
	p.clockMu.Unlock()
}

func serve(handler http.Handler) (*http.Server, string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: handler}
	go func() { _ = srv.Serve(l) }()
	return srv, "http://" + l.Addr().String(), nil
}

// traceCapacity bounds the event tracer's ring of recent traces.
const traceCapacity = 256

// New assembles the full pipeline, starting loopback HTTP servers for the
// Telemetry API, the fabric manager, the exporters, Slack and ServiceNow.
// Callers must Close it.
func New(opts Options) (*Pipeline, error) {
	if opts.Cluster.Name == "" {
		opts.Cluster = shasta.DefaultConfig()
	}
	if opts.Warehouse.Retention == 0 {
		opts.Warehouse.Retention = 2 * 365 * 24 * time.Hour
	}
	p := &Pipeline{}
	fail := func(err error) (*Pipeline, error) {
		p.Close()
		return nil, err
	}

	p.Tracer = obs.NewTracer(traceCapacity)
	p.obsReg = obs.NewRegistry()
	p.tickDur = p.obsReg.Histogram(obs.Namespace+"core_tick_duration_seconds",
		"Wall time of one full pipeline tick.", obs.DefBuckets)
	p.forwardedCtr = p.obsReg.Counter(obs.Namespace+"core_records_forwarded_total",
		"Telemetry API records forwarded into the warehouse.")
	p.stageErrCtr = p.obsReg.CounterVec(obs.Namespace+"stage_errors_total",
		"Tick stage failures by stage; a failing stage is isolated, the rest of the tick proceeds.", "stage")
	p.dlqCtr = p.obsReg.CounterVec(obs.Namespace+"dlq_records_total",
		"Malformed records quarantined to a dead-letter topic, by source topic.", "topic")
	p.tickFailCtr = p.obsReg.Counter(obs.Namespace+"core_tick_failures_total",
		"Ticks that completed with at least one stage error.")
	p.stageDur = p.obsReg.HistogramVec(obs.Namespace+"core_stage_duration_seconds",
		"Wall time of each tick stage, by stage.", obs.DefBuckets, "stage")
	p.detectLatency = p.obsReg.HistogramVec(obs.Namespace+"detection_latency_seconds",
		"End-to-end detection latency from event origin to first successful alert delivery, by rule; buckets carry exemplar trace IDs.",
		obs.LatencyBuckets, "rule")
	p.slo = obs.NewSLO(p.obsReg, opts.SLO)
	// Log-template mining over the syslog ingest path: per-template rate
	// counters become TSDB series through the vmagent self-scrape, so the
	// ruler's novel-template meta-rule and dashboards query them like any
	// other metric.
	p.Templates = anomaly.NewMiner(anomaly.MinerConfig{})
	p.tmplLines = p.obsReg.CounterVec(obs.Namespace+"templates_lines_total",
		"Syslog lines matched per mined Drain template.", "template")
	p.tmplNovel = p.obsReg.Counter(obs.Namespace+"templates_novel_total",
		"Syslog lines that minted a previously-unseen log template.")
	p.obsReg.Collect(func() []promtext.Family {
		st := p.Templates.Stats()
		active := promtext.Family{
			Name: obs.Namespace + "templates_active", Type: "gauge",
			Help: "Distinct log templates currently mined (bounded by the miner's MaxClusters).",
		}
		active = obs.Sample(active, float64(st.Templates))
		sat := promtext.Family{
			Name: obs.Namespace + "anomaly_detector_saturated", Type: "gauge",
			Help: "1 when detector state hit its memory bound and new series are dropped, by rule.",
		}
		v := 0.0
		if st.Saturated {
			v = 1
		}
		// The miner shares the detector-saturation family under a pseudo
		// rule name so one meta-rule watches every bounded state.
		sat = obs.Sample(sat, v, "rule", "log_templates")
		return []promtext.Family{active, sat}
	})
	// The united breaker family: one gauge per protected dependency. Each
	// component also exposes its own uniquely-named breaker gauge; this is
	// the cross-cutting view dashboards alert on.
	p.obsReg.Collect(func() []promtext.Family {
		f := promtext.Family{
			Name: obs.Namespace + "breaker_state", Type: "gauge",
			Help: "Circuit breaker state by dependency (0 closed, 1 half-open, 2 open).",
		}
		if p.slackNotifier != nil {
			f = obs.Sample(f, p.slackNotifier.Breaker().StateValue(), "dependency", "slack")
		}
		if p.snNotifier != nil {
			f = obs.Sample(f, p.snNotifier.Breaker().StateValue(), "dependency", "servicenow")
		}
		if p.VMAgent != nil {
			states := p.VMAgent.BreakerStates(p.Now())
			targets := make([]string, 0, len(states))
			for t := range states {
				targets = append(targets, t)
			}
			sort.Strings(targets)
			for _, t := range targets {
				f = obs.Sample(f, float64(states[t]), "dependency", "scrape:"+t)
			}
		}
		if p.Warehouse != nil {
			for _, nb := range p.Warehouse.WALBreakers() {
				f = obs.Sample(f, nb.Breaker.StateValue(), "dependency", nb.Name)
			}
		}
		if len(f.Metrics) == 0 {
			return nil
		}
		return []promtext.Family{f}
	})

	var err error
	if p.Cluster, err = shasta.NewCluster(opts.Cluster); err != nil {
		return fail(err)
	}
	p.Broker = kafka.NewBroker()
	if opts.Chaos != nil {
		p.Broker.SetProduceHook(opts.Chaos.HookFor("kafka.produce"))
	}
	if p.Collector, err = hms.NewCollector(p.Cluster, p.Broker, 4); err != nil {
		return fail(err)
	}
	p.Collector.SetTracer(p.Tracer)
	// Breaker open windows must track simulated time in experiments, like
	// the notifier breakers below.
	if opts.Warehouse.WAL.Now == nil {
		opts.Warehouse.WAL.Now = p.Now
	}
	if opts.Warehouse.Frontend.Now == nil {
		opts.Warehouse.Frontend.Now = p.Now
	}
	if p.Warehouse, err = omni.Open(opts.Warehouse); err != nil {
		return fail(err)
	}
	if opts.Chaos != nil {
		p.Warehouse.SetFaultHook(opts.Chaos.HookFor("warehouse.ingest"))
	}
	// Warehouse queries replay their spans onto the event tracer, so a slow
	// query shows up at /debug/trace/{id}?format=waterfall like any event.
	p.Warehouse.Tracker.SetTracer(p.Tracer)
	// Go runtime self-metrics ride the same registry the vmagent
	// "shastamon" job scrapes: GC pressure lands next to query latency.
	obs.RegisterRuntime(p.obsReg)

	// The pipeline's own observability endpoint: every component registry
	// united on /metrics, plus the event tracer on /debug/trace/. It is
	// served before vmagent is assembled so the agent can scrape it like
	// any other exporter — the self-monitoring loop.
	srvObs, obsURL, err := serve(p.ObsHandler())
	if err != nil {
		return fail(err)
	}
	p.servers = append(p.servers, srvObs)
	p.obsURL = obsURL

	// Telemetry API server plus the three forwarder subscriptions.
	var tokens []string
	if opts.Token != "" {
		tokens = []string{opts.Token}
		// Tenant credentials are additionally accepted on an
		// authenticated telemetry API. They must not switch an open API
		// to authenticated mode: the pipeline's own collectors push with
		// opts.Token, so with no Token set the internal surface stays
		// open and tenant auth gates only the omnid HTTP mounts.
		for tok := range opts.TenantTokens {
			tokens = append(tokens, tok)
		}
	}
	tsrv, err := telemetry.NewServer(telemetry.ServerConfig{
		Broker: p.Broker,
		Tokens: tokens,
		// Redfish events feed the alerting path; losing one across a server
		// crash could lose an incident, so their subscription commits only
		// after each response is written (at-least-once). The sensor/LDMS
		// topics stay at-most-once: a lost sample only dents a time series.
		ManualCommitTopics: []string{hms.TopicEvents},
	})
	if err != nil {
		return fail(err)
	}
	tsrv.SetTracer(p.Tracer)
	p.Telemetry = tsrv
	srv, turl, err := serve(tsrv.Handler())
	if err != nil {
		return fail(err)
	}
	p.servers = append(p.servers, srv)
	var telemetryHTTP *http.Client
	if opts.Chaos != nil {
		telemetryHTTP = opts.Chaos.Client("telemetry.http")
	}
	tclient := telemetry.NewClient(turl, opts.Token, telemetryHTTP)
	if p.subEvents, err = tclient.Subscribe("omni-redfish", hms.TopicEvents); err != nil {
		return fail(err)
	}
	if p.subSensors, err = tclient.Subscribe("omni-sensors",
		hms.TopicTemperature, hms.TopicPower, hms.TopicFan, hms.TopicHumidity); err != nil {
		return fail(err)
	}
	if p.subSyslog, err = tclient.Subscribe("omni-syslog", hms.TopicSyslog); err != nil {
		return fail(err)
	}

	// Fabric manager API and its monitor, pushing straight to Loki.
	p.FabricManager = fabricmgr.NewManager(p.Cluster)
	srv, furl, err := serve(p.FabricManager.Handler())
	if err != nil {
		return fail(err)
	}
	p.servers = append(p.servers, srv)
	fabricLabels := FabricEventLabels(p.Cluster.Name())
	p.FabricMonitor = fabricmgr.NewMonitor(furl, nil, fabricmgr.SinkFunc(func(e fabricmgr.Event) error {
		// Fabric events bypass Kafka, so their trace begins here: minted
		// keyed by the switch xname, origin at the event timestamp, so a
		// switch-offline alert gets end-to-end latency like a Redfish one.
		id := p.Tracer.Start(e.Xname, e.Timestamp, e.Problem)
		t0 := time.Now()
		err := p.Warehouse.IngestLogs([]loki.PushStream{{
			Labels:  fabricLabels,
			Entries: []loki.Entry{{Timestamp: e.Timestamp.UnixNano(), Line: e.Line()}},
		}})
		if err == nil {
			p.Tracer.Span(id, "loki.ingest", e.Timestamp, e.Timestamp.Add(time.Since(t0)), e.Line())
		}
		return err
	}))

	// Syslog aggregation into Kafka (topic created by the collector).
	p.SyslogAggregator = syslogd.NewAggregator(p.Broker)

	// LDMS samplers on a subset of nodes (full Perlmutter runs one per
	// node; 16 keeps the simulator's per-tick cost bounded).
	nodes := p.Cluster.Nodes()
	ldmsNodes := make([]string, 0, 16)
	for i, n := range nodes {
		if i >= 16 {
			break
		}
		ldmsNodes = append(ldmsNodes, n.String())
	}
	ldmsSampler, err := ldms.NewSampler(21, ldmsNodes...)
	if err != nil {
		return fail(err)
	}
	if p.LDMS, err = ldms.NewProducer(ldmsSampler, p.Broker, 4); err != nil {
		return fail(err)
	}
	if p.subLDMS, err = tclient.Subscribe("omni-ldms", ldms.Topic); err != nil {
		return fail(err)
	}

	// Exporters and the scraper.
	p.NodeExporter = exporters.NewNodeExporter(nodes[0].String(), 11)
	p.KafkaExporter = exporters.NewKafkaExporter(p.Broker)
	p.ArubaExporter = exporters.NewArubaExporter("mgmt-aruba-1", 8, 12)
	var jobs []vmagent.ScrapeConfig
	for _, e := range []struct {
		name    string
		handler http.Handler
	}{
		{"node", p.NodeExporter.Handler()},
		{"kafka", p.KafkaExporter.Handler()},
		{"aruba", p.ArubaExporter.Handler()},
	} {
		srv, url, err := serve(e.handler)
		if err != nil {
			return fail(err)
		}
		p.servers = append(p.servers, srv)
		jobs = append(jobs, vmagent.ScrapeConfig{JobName: e.name, Targets: []string{url + "/metrics"}})
	}
	// Self-monitoring: scrape the pipeline's own /metrics endpoint into
	// the warehouse TSDB so shastamon_* series are queryable via PromQL.
	jobs = append(jobs, vmagent.ScrapeConfig{JobName: "shastamon", Targets: []string{p.obsURL + "/metrics"}})
	if p.VMAgent, err = vmagent.New(p.Warehouse.Metrics, nil, jobs...); err != nil {
		return fail(err)
	}

	// Notification terminals.
	p.Slack = slack.NewWebhook()
	srv, slackURL, err := serve(p.Slack.Handler())
	if err != nil {
		return fail(err)
	}
	p.servers = append(p.servers, srv)
	p.ServiceNow = servicenow.NewInstance(servicenow.Config{Now: p.Now})
	loadCMDB(p.ServiceNow, p.Cluster)
	srv, snURL, err := serve(p.ServiceNow.Handler())
	if err != nil {
		return fail(err)
	}
	p.servers = append(p.servers, srv)

	var slackHTTP, snHTTP *http.Client
	if opts.Chaos != nil {
		slackHTTP = opts.Chaos.Client("slack.http")
		snHTTP = opts.Chaos.Client("servicenow.http")
	}
	slackNotifier := slack.NewNotifier("slack", slackURL, "#perlmutter-alerts", slackHTTP)
	snNotifier := servicenow.NewNotifier("servicenow", snURL, snHTTP)
	// Breaker open windows must track simulated time in experiments.
	slackNotifier.SetClock(p.Now)
	snNotifier.SetClock(p.Now)
	p.slackNotifier = slackNotifier
	p.snNotifier = snNotifier

	route := opts.Route
	if route == nil {
		critical := labels.Selector{labels.MustMatcher(labels.MatchEqual, "severity", "critical")}
		gw := opts.GroupWait
		if gw == 0 {
			gw = time.Nanosecond
		}
		route = &alertmanager.Route{
			Receiver:  "slack",
			GroupWait: gw,
			GroupBy:   []string{"alertname"},
			Routes: []*alertmanager.Route{
				{Receiver: "servicenow", Matchers: critical, GroupWait: gw, Continue: true},
				{Receiver: "slack", Matchers: critical, GroupWait: gw},
			},
		}
	}
	if p.Alertmanager, err = alertmanager.New(alertmanager.Config{
		Route:       route,
		Receivers:   []alertmanager.Receiver{slackNotifier, snNotifier},
		Inhibit:     opts.Inhibit,
		Now:         p.Now,
		Tracer:      p.Tracer,
		OnDelivered: p.alertDelivered,
	}); err != nil {
		return fail(err)
	}

	if p.Ruler, err = ruler.New(p.Warehouse.LogQL, p.Alertmanager, p.Now, opts.LogRules...); err != nil {
		return fail(err)
	}
	p.Ruler.SetTracer(p.Tracer)
	metricRules := opts.MetricRules
	if opts.MetaAlerts {
		metricRules = append(append([]vmalert.Rule{}, metricRules...), MetaRules()...)
	}
	if p.VMAlert, err = vmalert.New(p.Warehouse.PromQL, p.Alertmanager, p.Now, metricRules...); err != nil {
		return fail(err)
	}
	p.VMAlert.SetTracer(p.Tracer)
	return p, nil
}

// alertDelivered is the Alertmanager's per-alert delivery hook: the
// moment an alert first lands at a receiver it closes out the event's
// end-to-end detection latency — origin (Redfish emit or fabric event)
// to delivery — into shastamon_detection_latency_seconds{rule} with an
// exemplar trace ID, and feeds the SLO accounting. The Tracer.Once guard
// makes the observation exactly-once per trace and rule even when the
// same alert is delivered to both Slack and ServiceNow or re-notified
// later.
func (p *Pipeline) alertDelivered(a alertmanager.Alert, receiver string, start, end time.Time) {
	id := p.Tracer.IDByKey(alertmanager.TraceKey(a.Labels))
	if id == "" {
		return
	}
	origin, ok := p.Tracer.Origin(id)
	if !ok {
		return
	}
	rule := a.Name()
	if rule == "" || !p.Tracer.Once(id, "latency."+rule) {
		return
	}
	lat := end.Sub(origin)
	if lat < 0 {
		lat = 0
	}
	p.detectLatency.With(rule).ObserveWithExemplar(lat.Seconds(), end.UnixMilli(), "trace_id", id)
	p.Tracer.Annotate(id, "detection_latency_seconds",
		strconv.FormatFloat(lat.Seconds(), 'g', -1, 64))
	p.slo.Observe(rule, lat)
}

// SLO exposes the detection-latency SLO tracker (report, handler).
func (p *Pipeline) SLO() *obs.SLO { return p.slo }

// SLOReport snapshots per-rule detection-latency SLO state.
func (p *Pipeline) SLOReport() obs.SLOReport { return p.slo.Report() }

// Gather unites every component's self-monitoring registry into one
// family list — the content of the pipeline's /metrics page.
func (p *Pipeline) Gather() []promtext.Family {
	var fams []promtext.Family
	add := func(r *obs.Registry) { fams = append(fams, r.Gather()...) }
	add(p.obsReg)
	if p.Broker != nil {
		add(p.Broker.Metrics())
	}
	if p.Collector != nil {
		add(p.Collector.Metrics())
	}
	if p.Telemetry != nil {
		add(p.Telemetry.Metrics())
	}
	if p.Warehouse != nil {
		add(p.Warehouse.ObsMetrics())
		add(p.Warehouse.Logs.Metrics())
		add(p.Warehouse.Metrics.Metrics())
	}
	if p.VMAgent != nil {
		add(p.VMAgent.Metrics())
	}
	if p.Ruler != nil {
		add(p.Ruler.Metrics())
	}
	if p.VMAlert != nil {
		add(p.VMAlert.Metrics())
	}
	if p.Alertmanager != nil {
		add(p.Alertmanager.Metrics())
	}
	if p.slackNotifier != nil {
		add(p.slackNotifier.Metrics())
	}
	if p.snNotifier != nil {
		add(p.snNotifier.Metrics())
	}
	return fams
}

// ObsHandler serves the pipeline's observability endpoint:
//
//	GET /metrics          united shastamon_* self-metrics (Prometheus text)
//	GET /debug/trace/     retained event traces; /debug/trace/{id} for one
//	                      (?format=waterfall for the plain-text span view)
//	GET /debug/slo        per-rule detection-latency SLO report (JSON)
//	GET /debug/queries    queries in flight right now (JSON)
//	POST /debug/queries/{id}/kill  cancel a runaway query mid-scan
//	GET /debug/slowlog    recent slow / limit-breached queries (JSON)
//	GET /debug/templates  mined log templates, busiest first (JSON)
func (p *Pipeline) ObsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.Handler(obs.GathererFunc(p.Gather)))
	mux.Handle("/debug/trace/", p.Tracer.Handler())
	mux.Handle("/debug/slo", p.slo.Handler())
	if p.Warehouse != nil && p.Warehouse.Tracker != nil {
		qh := p.Warehouse.Tracker.Handler()
		mux.Handle("/debug/queries", qh)
		mux.Handle("/debug/queries/", qh)
		mux.Handle("/debug/slowlog", qh)
	}
	mux.HandleFunc("/debug/templates", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(struct {
			Stats     anomaly.MinerStats `json:"stats"`
			Templates []anomaly.Template `json:"templates"`
		}{p.Templates.Stats(), p.Templates.Templates()})
	})
	return mux
}

// ObsTarget returns the base URL of the pipeline's observability server
// ("" before New completes) — its /metrics path is the vmagent
// "shastamon" job's scrape target.
func (p *Pipeline) ObsTarget() string { return p.obsURL }

// loadCMDB registers every component as a CI and records the service map:
// each compute node depends on a Rosetta switch in its chassis ("Each
// Rosetta switch connects eight compute nodes"), so a switch incident
// carries the impact set of its nodes.
func loadCMDB(sn *servicenow.Instance, cluster *shasta.Cluster) {
	var cis []servicenow.CI
	for _, n := range cluster.Nodes() {
		cis = append(cis, servicenow.CI{Name: n.String(), Class: "cmdb_ci_computer"})
	}
	for _, s := range cluster.Switches() {
		cis = append(cis, servicenow.CI{Name: s.String(), Class: "cmdb_ci_netgear", Attributes: map[string]string{"model": "Rosetta"}})
	}
	for _, b := range cluster.ChassisBMCs() {
		cis = append(cis, servicenow.CI{Name: b.String(), Class: "cmdb_ci_chassis"})
	}
	sn.LoadCMDB(cis...)

	// Group switches per chassis, then spread that chassis' nodes over them
	// eight to a switch.
	switchesByChassis := map[string][]shasta.Xname{}
	for _, s := range cluster.Switches() {
		switchesByChassis[s.Parent().String()] = append(switchesByChassis[s.Parent().String()], s)
	}
	nodeIdx := map[string]int{}
	for _, n := range cluster.Nodes() {
		chassis := n.Parent().Parent().Parent().String() // node -> bmc -> blade -> chassis
		switches := switchesByChassis[chassis]
		if len(switches) == 0 {
			continue
		}
		i := nodeIdx[chassis]
		nodeIdx[chassis] = i + 1
		sw := switches[(i/8)%len(switches)]
		_ = sn.AddDependency(n.String(), sw.String())
	}
}

// quarantineRecord diverts a malformed record to its topic's dead-letter
// queue, preserving the original payload and headers plus the error
// reason and source coordinates.
func (p *Pipeline) quarantineRecord(rec telemetry.Record, raw []byte, reason error) error {
	key, _ := base64.StdEncoding.DecodeString(rec.Key)
	m := kafka.Message{
		Topic: rec.Topic, Partition: rec.Partition, Offset: rec.Offset,
		Key: key, Value: raw, Timestamp: rec.Timestamp, Headers: rec.Headers,
	}
	if _, _, err := kafka.Quarantine(p.Broker, m, reason); err != nil {
		return err
	}
	p.dlqCtr.With(rec.Topic).Inc()
	if tid := rec.Headers[obs.TraceHeader]; tid != "" {
		p.Tracer.Stage(tid, "core.quarantine", p.Now(), reason.Error())
	}
	return nil
}

// drain empties one subscription, routing each record through handle.
// Poisoned records (IsPoison) are quarantined and skipped; infrastructure
// errors abort the drain — the next tick retries it — without touching
// the other subscriptions.
func (p *Pipeline) drain(sub *telemetry.Subscription, name string, max int,
	handle func(rec telemetry.Record, raw []byte) error) (int, error) {
	total := 0
	for {
		recs, err := sub.Poll(max, 0)
		if err != nil {
			return total, fmt.Errorf("%s: %w", name, err)
		}
		if len(recs) == 0 {
			return total, nil
		}
		for _, rec := range recs {
			raw, err := rec.DecodeValue()
			if err != nil {
				err = poison(fmt.Errorf("core: %s value: %w", name, err))
				raw = []byte(rec.Value)
			} else {
				err = handle(rec, raw)
			}
			if err != nil {
				if IsPoison(err) {
					if qerr := p.quarantineRecord(rec, raw, err); qerr != nil {
						return total, fmt.Errorf("%s: quarantine: %w", name, qerr)
					}
					continue
				}
				return total, fmt.Errorf("%s: %w", name, err)
			}
			total++
		}
	}
}

func (p *Pipeline) forwardEvent(rec telemetry.Record, raw []byte) error {
	tid := rec.Headers[obs.TraceHeader]
	now := p.Now()
	t0 := time.Now()
	payload, err := redfish.ParsePayload(raw)
	if err != nil {
		p.Tracer.Stage(tid, "core.forward", now, rec.Topic)
		return poison(fmt.Errorf("core: event payload: %w", err))
	}
	streams, err := RedfishToLoki(payload, p.Cluster.Name())
	if err != nil {
		p.Tracer.Stage(tid, "core.forward", now, rec.Topic)
		return poison(err)
	}
	p.Tracer.Span(tid, "core.forward", now, now.Add(time.Since(t0)), rec.Topic)
	// Out-of-order entries (BMC clock skew) are dropped and counted
	// by the store; they must not stall the forwarder.
	t1 := time.Now()
	if err := p.Warehouse.IngestLogs(streams); err != nil && !errors.Is(err, chunkenc.ErrOutOfOrder) {
		return err
	}
	p.Tracer.Span(tid, "loki.ingest", now, now.Add(time.Since(t1)),
		fmt.Sprintf("%d stream(s)", len(streams)))
	return nil
}

func (p *Pipeline) forwardSyslog(_ telemetry.Record, raw []byte) error {
	var m syslogd.Message
	if err := unmarshalSyslog(raw, &m); err != nil {
		return err
	}
	// Template mining rides the ingest path: every line updates the
	// bounded Drain tree and its per-template rate counter.
	id, novel := p.Templates.Learn(m.Text)
	p.tmplLines.With(anomaly.TemplateLabel(id)).Inc()
	if novel {
		p.tmplNovel.Inc()
	}
	if err := p.Warehouse.IngestLogs([]loki.PushStream{SyslogToLoki(m, p.Cluster.Name())}); err != nil &&
		!errors.Is(err, chunkenc.ErrOutOfOrder) {
		return err
	}
	return nil
}

// ForwardPending drains the telemetry subscriptions into the warehouse:
// Redfish events to Loki (via RedfishToLoki), sensor samples to the TSDB,
// syslog to Loki. It returns the number of records forwarded. The four
// drains are error-isolated: a failing subscription reports its error but
// does not block the others, and malformed records are quarantined to
// per-topic dead-letter queues instead of wedging the forwarder.
func (p *Pipeline) ForwardPending() (int, error) {
	total := 0
	defer func() { p.forwardedCtr.Add(float64(total)) }()
	var errs []error
	for _, d := range []struct {
		sub  *telemetry.Subscription
		name string
		max  int
		fn   func(rec telemetry.Record, raw []byte) error
	}{
		{p.subEvents, "events", 500, p.forwardEvent},
		{p.subSensors, "sensors", 2000, func(_ telemetry.Record, raw []byte) error {
			return sensorRecordToWarehouse(p.Warehouse, raw)
		}},
		{p.subLDMS, "ldms", 2000, func(_ telemetry.Record, raw []byte) error {
			return ldmsRecordToWarehouse(p.Warehouse, raw)
		}},
		{p.subSyslog, "syslog", 2000, p.forwardSyslog},
	} {
		n, err := p.drain(d.sub, d.name, d.max, d.fn)
		total += n
		if err != nil {
			errs = append(errs, err)
		}
	}
	return total, errors.Join(errs...)
}

// DLQRecords returns the quarantined records of topic (source or .dlq
// name); nil if nothing was ever quarantined from it.
func (p *Pipeline) DLQRecords(topic string) ([]kafka.Message, error) {
	return kafka.DLQRecords(p.Broker, topic)
}

// ReplayDLQ re-produces topic's quarantined records onto their source
// topic (after an operator fixes the producer or the parser) and returns
// how many were replayed.
func (p *Pipeline) ReplayDLQ(topic string) (int, error) {
	return kafka.ReplayDLQ(p.Broker, topic)
}

// Tick advances the whole pipeline one synchronous cycle at the given
// simulated time: collect hardware telemetry, forward it to the stores,
// poll the fabric manager, scrape exporters, evaluate alert rules, flush
// the Alertmanager and enforce retention. Experiments drive Tick with a
// simulated clock to reproduce the paper's figures deterministically.
// Each stage is error-isolated: a failing stage increments
// shastamon_stage_errors_total{stage} and the rest of the tick still
// runs — crucially, alert evaluation and the Alertmanager flush happen
// even when collection is degraded, so already-ingested evidence still
// raises incidents. Tick returns the joined stage errors.
func (p *Pipeline) Tick(now time.Time) error {
	t0 := time.Now()
	defer func() { p.tickDur.Observe(time.Since(t0).Seconds()) }()
	p.SetNow(now)
	var errs []error
	stage := func(name string, fn func() error) {
		s0 := time.Now()
		err := fn()
		p.stageDur.With(name).Observe(time.Since(s0).Seconds())
		if err != nil {
			p.stageErrCtr.With(name).Inc()
			errs = append(errs, fmt.Errorf("core: %s: %w", name, err))
		}
	}
	stage("collect", func() error { _, _, err := p.Collector.CollectOnce(now); return err })
	stage("ldms", func() error { _, err := p.LDMS.ProduceOnce(now); return err })
	stage("forward", func() error { _, err := p.ForwardPending(); return err })
	stage("fabric_poll", func() error { _, err := p.FabricMonitor.PollOnce(now); return err })
	stage("scrape", func() error { return p.VMAgent.ScrapeOnce(now) })
	stage("ruler", func() error { _, err := p.Ruler.EvalOnce(); return err })
	stage("vmalert", func() error { _, err := p.VMAlert.EvalOnce(); return err })
	stage("alertmanager_flush", func() error { p.Alertmanager.Flush(); return nil })
	stage("retention", func() error { p.Warehouse.EnforceRetention(now); return nil })
	stage("checkpoint", func() error { return p.Warehouse.MaybeCheckpoint(now) })
	if len(errs) > 0 {
		p.tickFailCtr.Inc()
		return errors.Join(errs...)
	}
	return nil
}

// Run operates the pipeline on wall-clock time until the context is
// cancelled: every component loops at its own interval, communicating
// through the same paths Tick exercises synchronously. Tick errors do not
// exit the loop — the pipeline is the thing that must outlive its
// dependencies' outages — they stretch the interval with bounded
// exponential backoff (doubling up to 30s) until a clean tick restores
// it. Run only returns the context's error.
func (p *Pipeline) Run(ctx context.Context, interval time.Duration) error {
	if interval <= 0 {
		interval = time.Second
	}
	const maxBackoff = 30 * time.Second
	backoff := interval
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case now := <-t.C:
			if err := p.Tick(now); err != nil {
				backoff *= 2
				if backoff > maxBackoff {
					backoff = maxBackoff
				}
				t.Reset(backoff)
			} else if backoff != interval {
				backoff = interval
				t.Reset(interval)
			}
		}
	}
}

// Close shuts down the pipeline's HTTP servers and subscriptions, then
// flushes the warehouse's durable state: a final checkpoint, WAL close
// and CLEAN marker so the next start skips replay. It is idempotent, and
// shutdowns within each group run in parallel (subscriptions first —
// they talk to the telemetry server; the warehouse last, once nothing
// can ingest any more).
func (p *Pipeline) Close() {
	p.closeOnce.Do(func() {
		var wg sync.WaitGroup
		for _, sub := range []*telemetry.Subscription{p.subEvents, p.subSensors, p.subSyslog, p.subLDMS} {
			if sub == nil {
				continue
			}
			wg.Add(1)
			go func(s *telemetry.Subscription) {
				defer wg.Done()
				_ = s.Close()
			}(sub)
		}
		wg.Wait()
		for _, srv := range p.servers {
			wg.Add(1)
			go func(srv *http.Server) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				_ = srv.Shutdown(ctx)
				cancel()
			}(srv)
		}
		wg.Wait()
		if p.Warehouse != nil {
			_ = p.Warehouse.Shutdown()
		}
	})
}
