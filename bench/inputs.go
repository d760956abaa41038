package main

import (
	"fmt"
	"math/rand"
	"time"

	"shastamon/internal/core"
	"shastamon/internal/fabricmgr"
	"shastamon/internal/labels"
	"shastamon/internal/loki"
	"shastamon/internal/redfish"
	"shastamon/internal/shasta"
	"shastamon/internal/syslogd"
)

// Every input below is a pure function of the seed: the program under
// test receives only generated inputs, and the reference answers in
// reference.go are computed from the same values.

const (
	clusterName = "perlmutter"
	syslogHosts = 512
	tickStep    = 30 * time.Second // simulated time per detect.live tick
	warmTicks   = 4                // untimed ticks before the first timed one
	bgPerTick   = 500              // background syslog messages per tick
	cycleSyslog = 2000             // syslog messages per ingest.pipeline cycle
	batchSize   = 256              // log entries (and samples) per ingest.durable batch
)

// t0 is where timed activity starts; preloaded history covers the hour
// before it.
var t0 = time.Date(2022, 3, 3, 1, 0, 0, 0, time.UTC)

// clusterConfig sizes the simulated machine for fault injection: 64
// chassis BMCs to leak on, 512 switches to flip, few nodes so the sensor
// sweep stays a background cost (200 samples).
func clusterConfig(seed int64) shasta.Config {
	return shasta.Config{
		Name:              clusterName,
		Cabinets:          []int{1000, 1001, 1002, 1003, 1004, 1005, 1006, 1007},
		ChassisPerCabinet: 8, BladesPerChassis: 1, NodesPerBMC: 1, SwitchesPerChassis: 8,
		Seed: seed,
	}
}

func mustCluster(seed int64) *shasta.Cluster {
	c, err := shasta.NewCluster(clusterConfig(seed))
	if err != nil {
		panic(err) // the config above is constant and valid
	}
	return c
}

// syslogTemplates mirror the shapes syslogd.Generator emits; the app and
// severity of a template are stream labels, so one host has at most
// len(syslogTemplates) streams.
var syslogTemplates = []struct {
	app      string
	severity int
	text     string
	args     int // %d verbs in text
}{
	{"kernel", 6, "eth0: NIC Link is Up 100 Gbps", 0},
	{"kernel", 4, "CPU%d: Core temperature above threshold, cpu clock throttled", 1},
	{"sshd", 6, "Accepted publickey for operator from 10.0.%d.%d port 52144 ssh2", 2},
	{"slurmd", 6, "launch task StepId=%d.0 request from UID:1001", 1},
	{"slurmd", 3, "error: Node configuration differs from hardware: ProcCount=128:%d", 1},
	{"mmfs", 6, "GPFS: mmfsd ready", 0},
	{"mmfs", 5, "GPFS: Accepted and connected to 10.100.%d.%d nid%06d", 3},
	{"systemd", 6, "Started Session %d of user nersc", 1},
}

// syslogGen draws hosts from a Zipf distribution: a few chatty hosts fill
// and seal chunks while most streams stay in their head block, as on a
// real machine, so chunk encoding runs at default chunk sizes.
type syslogGen struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	hosts []string
}

func newSyslogGen(seed int64) *syslogGen {
	rng := rand.New(rand.NewSource(seed))
	hosts := make([]string, syslogHosts)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("nid%06d", i+1)
	}
	return &syslogGen{rng: rng, zipf: rand.NewZipf(rng, 1.2, 1, syslogHosts-1), hosts: hosts}
}

func (g *syslogGen) next(ts time.Time) syslogd.Message {
	tpl := syslogTemplates[g.rng.Intn(len(syslogTemplates))]
	text := tpl.text
	if tpl.args > 0 {
		args := make([]any, tpl.args)
		for i := range args {
			args[i] = g.rng.Intn(256)
		}
		text = fmt.Sprintf(text, args...)
	}
	return syslogd.Message{
		Facility: 1, Severity: tpl.severity, Hostname: g.hosts[g.zipf.Uint64()],
		App: tpl.app, Text: text, Timestamp: ts,
	}
}

// messages returns n messages evenly spaced over [start, start+span).
func (g *syslogGen) messages(n int, start time.Time, span time.Duration) []syslogd.Message {
	out := make([]syslogd.Message, n)
	for i := range out {
		out[i] = g.next(start.Add(span / time.Duration(n) * time.Duration(i)))
	}
	return out
}

// event is one log line the reference needs to know about: when it
// happened and the label value queries group by (Context, xname or
// hostname).
type event struct {
	ts  int64 // Unix nanoseconds
	key string
}

// metricSample is one TSDB input.
type metricSample struct {
	name   string
	labels labels.Labels
	ms     int64
	v      float64
}

// redfishStreams renders a leak (or, with leak false, a power-state) event
// exactly as the pipeline's forwarder would: HMS payload, then the
// Fig. 3 transformation.
func redfishStreams(ctx string, ts time.Time, leak bool) []loki.PushStream {
	ev := redfish.PowerEvent(ts, ctx, "On")
	if leak {
		ev = redfish.LeakEvent(ts, "A", "Front")
	}
	streams, err := core.RedfishToLoki(redfish.NewPayload(redfish.Record{Context: ctx, Events: []redfish.Event{ev}}), clusterName)
	if err != nil {
		panic(err) // the event above carries a valid timestamp
	}
	return streams
}

func switchLine(xname string) string {
	return fabricmgr.Event{Severity: "critical", Problem: "fm_switch_offline", Xname: xname, State: string(shasta.SwitchUnknown)}.Line()
}

// history is one simulated hour of stored data plus what the reference
// needs to answer queries over it.
type history struct {
	logs    [][]loki.PushStream // push batches, in push order
	samples []metricSample

	leaks    []event // CabinetLeakDetected events, key = Context
	switches []event // fm_switch_offline events, key = xname
	syslog   []event // key = hostname
	temps    map[string][]metricSample
}

func (h *history) addLogs(batch []loki.PushStream) { h.logs = append(h.logs, batch) }

func (h *history) addSyslog(msgs []syslogd.Message) {
	for i := 0; i < len(msgs); i += batchSize {
		end := min(i+batchSize, len(msgs))
		batch := make([]loki.PushStream, 0, end-i)
		for _, m := range msgs[i:end] {
			batch = append(batch, core.SyslogToLoki(m, clusterName))
			h.syslog = append(h.syslog, event{m.Timestamp.UnixNano(), m.Hostname})
		}
		h.addLogs(batch)
	}
}

// dashboardHistory is what query.dashboard reads, dashboardHours long:
// every chassis BMC emits a Redfish event every 15 s (one in four a leak,
// the rest power events the line filter must reject), one switch drops
// every 30 s, the 512 hosts log syslogLines lines, and every node reports
// a temperature every 30 s.
func dashboardHistory(seed int64, syslogLines int) *history {
	rng := rand.New(rand.NewSource(seed))
	cl := mustCluster(seed)
	const span = dashboardHours * time.Hour
	start := t0.Add(-span)
	h := &history{temps: map[string][]metricSample{}}
	for _, bmc := range cl.ChassisBMCs() {
		ctx := bmc.String()
		var merged loki.PushStream
		for s := 0; s < int(span/time.Second); s += 15 {
			ts := start.Add(time.Duration(s+rng.Intn(15)) * time.Second)
			leak := rng.Intn(4) == 0
			ps := redfishStreams(ctx, ts, leak)[0]
			merged.Labels = ps.Labels
			merged.Entries = append(merged.Entries, ps.Entries...)
			if leak {
				h.leaks = append(h.leaks, event{ts.UnixNano(), ctx})
			}
		}
		h.addLogs([]loki.PushStream{merged})
	}
	fabric := loki.PushStream{Labels: core.FabricEventLabels(clusterName)}
	sw := cl.Switches()
	for k := 0; k < int(span/tickStep); k++ {
		ts := start.Add(time.Duration(k) * tickStep).UnixNano()
		x := sw[rng.Intn(len(sw))].String()
		fabric.Entries = append(fabric.Entries, loki.Entry{Timestamp: ts, Line: switchLine(x)})
		h.switches = append(h.switches, event{ts, x})
	}
	h.addLogs([]loki.PushStream{fabric})
	h.addSyslog(newSyslogGen(seed+1).messages(syslogLines, start, span))
	for k := 0; k < int(span/tickStep); k++ {
		ms := start.Add(time.Duration(k) * tickStep).UnixMilli()
		for _, n := range cl.Nodes() {
			x := n.String()
			s := metricSample{"cray_telemetry_temperature",
				labels.FromStrings("xname", x, "physical_context", "CPU", "unit", "Cel"), ms, 40 + 55*rng.Float64()}
			h.samples = append(h.samples, s)
			h.temps[x] = append(h.temps[x], s)
		}
	}
	return h
}

// tickPlan is what detect.live does at tick k: now = t0 + k*tickStep.
// Ticks below -warmTicks exist only as preloaded history.
type tickPlan struct {
	now     time.Time
	leakBMC string // "" on odd ticks
	switchX string
}

// detectPlan lays faults out so that every tick flips a switch that was
// never flipped before and every second tick leaks on the chassis BMC
// whose previous leak has already left the rule's 60m window: 64 BMCs in
// rotation come round every 128 ticks, the window spans 120.
type detectPlan struct {
	bmcs, switches []string
}

func newDetectPlan(seed int64) *detectPlan {
	cl := mustCluster(seed)
	p := &detectPlan{}
	for _, b := range cl.ChassisBMCs() {
		p.bmcs = append(p.bmcs, b.String())
	}
	for _, s := range cl.Switches() {
		p.switches = append(p.switches, s.String())
	}
	// Seeded shuffles, so which component fails when depends on the seed.
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(p.bmcs), func(i, j int) { p.bmcs[i], p.bmcs[j] = p.bmcs[j], p.bmcs[i] })
	rng.Shuffle(len(p.switches), func(i, j int) { p.switches[i], p.switches[j] = p.switches[j], p.switches[i] })
	return p
}

// preloadSwitchTicks is how many ticks of switch events the history
// holds: the switch rule looks back 5m, ten ticks.
const preloadSwitchTicks = 10

// maxTicks is how many timed ticks the switch supply allows.
func (p *detectPlan) maxTicks() int { return len(p.switches) - preloadSwitchTicks - warmTicks }

func (p *detectPlan) tick(k int) tickPlan {
	tp := tickPlan{now: t0.Add(time.Duration(k) * tickStep)}
	if k%2 == 0 {
		n := len(p.bmcs)
		tp.leakBMC = p.bmcs[((k/2)%n+n)%n]
	}
	if i := k + warmTicks + preloadSwitchTicks; i >= 0 && i < len(p.switches) {
		tp.switchX = p.switches[i]
	}
	return tp
}

// detectHistory is the hour before the first warm-up tick at the same
// per-tick rates as the timed run, so the [60m] and [5m] rule windows are
// full from the first timed tick.
func detectHistory(seed int64, p *detectPlan) *history {
	h := &history{}
	first := -warmTicks - int(time.Hour/tickStep)
	fabric := loki.PushStream{Labels: core.FabricEventLabels(clusterName)}
	for k := first; k < -warmTicks; k++ {
		tp := p.tick(k)
		if tp.leakBMC != "" {
			h.addLogs(redfishStreams(tp.leakBMC, tp.now, true))
			h.leaks = append(h.leaks, event{tp.now.UnixNano(), tp.leakBMC})
		}
		if tp.switchX != "" {
			fabric.Entries = append(fabric.Entries, loki.Entry{Timestamp: tp.now.UnixNano(), Line: switchLine(tp.switchX)})
		}
	}
	h.addLogs([]loki.PushStream{fabric})
	h.addSyslog(newSyslogGen(seed+2).messages(bgPerTick*int(time.Hour/tickStep), t0.Add(time.Duration(first)*tickStep), time.Hour))
	return h
}
