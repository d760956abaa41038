package main

import (
	"fmt"
	"regexp"
	"strings"
	"time"

	"shastamon/internal/alertmanager"
	"shastamon/internal/core"
	"shastamon/internal/experiments"
	"shastamon/internal/labels"
	"shastamon/internal/logql"
	"shastamon/internal/obs"
	"shastamon/internal/promtext"
	"shastamon/internal/ruler"
	"shastamon/internal/shasta"
)

const (
	// missAfter is how many ticks a fault may wait for its Slack message
	// before it counts as a missed detection.
	missAfter = 6
	// drainTicks run after the last timed tick so the leaks injected last
	// can sit out their 1m hold (two ticks).
	drainTicks = 3
)

// tickStages are the stages of core.Pipeline.Tick, as labelled on
// shastamon_core_stage_duration_seconds.
var tickStages = []string{"collect", "ldms", "forward", "fabric_poll", "scrape", "ruler", "vmalert", "alertmanager_flush", "retention", "checkpoint"}

// detectKernel is detect.live: the whole pipeline with the paper's two
// rules unmodified (leak: for 1m; switch: for 0), meta-alerts off. The
// clock steps 30 s per tick and ticks run back to back, so the configured
// hold costs no wall time and a detection latency is exactly the time the
// code spent. Every tick carries a background batch (syslog through the
// aggregator; the sensor sweep is part of Tick), every second tick leaks
// on a chassis BMC, every tick flips a switch to UNKNOWN, and every tick
// ends with one panel refresh against the store that is being written.
type detectKernel struct {
	p    *core.Pipeline
	plan *detectPlan
	gen  *syslogGen

	leaks   []event            // stored leak events, history included: the panel's reference
	pending map[string]pending // faults waiting for their Slack message
	atStart []promtext.Family  // the pipeline's self-metrics after warm-up
}

type pending struct {
	tick   int
	record bool          // false for warm-up injections
	spent  time.Duration // program time since the injecting call returned
}

// perFaultRoute groups alerts per Context and xname, as
// experiments.Latency does: with the default alertname grouping every
// fault after the first would wait out the 5m group interval, and the
// number would measure Alertmanager batching instead of detection.
func perFaultRoute() *alertmanager.Route {
	critical := labels.Selector{labels.MustMatcher(labels.MatchEqual, "severity", "critical")}
	gw := time.Nanosecond
	return &alertmanager.Route{
		Receiver: "slack", GroupWait: gw, GroupBy: []string{"alertname", "Context", "xname"},
		Routes: []*alertmanager.Route{
			{Receiver: "servicenow", Matchers: critical, GroupWait: gw, Continue: true},
			{Receiver: "slack", Matchers: critical, GroupWait: gw},
		},
	}
}

func setupDetect(seed int64) (*detectKernel, error) {
	p, err := core.New(core.Options{
		Cluster:  clusterConfig(seed),
		LogRules: []ruler.Rule{experiments.LeakRule, experiments.SwitchRule},
		Route:    perFaultRoute(),
	})
	if err != nil {
		return nil, err
	}
	k := &detectKernel{p: p, plan: newDetectPlan(seed), gen: newSyslogGen(seed + 30), pending: map[string]pending{}}
	hist := detectHistory(seed, k.plan)
	k.leaks = hist.leaks
	if err := preload(p.Warehouse, hist); err != nil {
		p.Close()
		return nil, err
	}
	// Warm-up ticks prime the fabric monitor's baseline, raise the alerts
	// of the preloaded faults and let them through to Slack.
	rec := newRecorder(false)
	for t := -warmTicks; t < 0; t++ {
		if err := k.tick(rec, t, true); err != nil {
			p.Close()
			return nil, err
		}
	}
	if len(rec.problems) > 0 {
		p.Close()
		return nil, fmt.Errorf("warm-up ticks: %s", rec.problems[0])
	}
	k.atStart = p.Gather()
	return k, nil
}

func (k *detectKernel) close() { k.p.Close() }

// firingLabel finds the component in a Slack attachment: one attachment
// per alert, titled with the rule, the Context or xname label as a bullet.
var firingLabel = regexp.MustCompile("\\*(Context|xname)\\*: `([^`]+)`")

// tick runs one simulated 30 s. inject is false for the drain ticks.
func (k *detectKernel) tick(rec *recorder, t int, inject bool) error {
	timedTick := t >= 0 && inject
	tp := k.plan.tick(t)
	msgs := k.gen.messages(bgPerTick, tp.now, tickStep)
	root := rec.tr.begin("detect", t)
	defer rec.tr.end(root)
	if _, err := rec.timed("produce", t, func() error {
		for _, m := range msgs {
			if err := k.p.SyslogAggregator.Ingest(m); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return fmt.Errorf("tick %d background: %w", t, err)
	}
	var injected []string
	if inject {
		if _, err := rec.timed("inject", t, func() error {
			if tp.leakBMC != "" {
				if err := k.p.Cluster.InjectLeak(tp.leakBMC, "A", "Front", tp.now); err != nil {
					return err
				}
				injected = append(injected, experiments.LeakRule.Name+"/"+tp.leakBMC)
				k.leaks = append(k.leaks, event{tp.now.UnixNano(), tp.leakBMC})
			}
			if err := k.p.Cluster.SetSwitchState(tp.switchX, shasta.SwitchUnknown); err != nil {
				return err
			}
			injected = append(injected, experiments.SwitchRule.Name+"/"+tp.switchX)
			return nil
		}); err != nil {
			return fmt.Errorf("tick %d inject: %w", t, err)
		}
	}
	for _, key := range injected {
		if _, dup := k.pending[key]; dup {
			rec.problem("detect.live tick %d: %s injected while its previous fault is undetected", t, key)
		}
		k.pending[key] = pending{tick: t, record: timedTick}
		if timedTick {
			rec.attempted++
		}
	}
	d, err := rec.timed("tick", t, func() error { return k.p.Tick(tp.now) })
	if err != nil {
		// A failed stage is isolated by Tick; what it cost shows up as
		// missed detections below.
		rec.problem("detect.live tick %d: %v", t, err)
	}
	if timedTick {
		rec.add("tick_ms", ms(d))
		rec.ops(len(msgs), len(msgs))
	}
	for key, pd := range k.pending {
		pd.spent += d
		k.pending[key] = pd
	}

	// What reached Slack during this tick.
	for _, m := range k.p.Slack.Messages() {
		if !strings.Contains(m.Text, "[FIRING]") {
			continue
		}
		for _, att := range m.Attachments {
			lm := firingLabel.FindStringSubmatch(att.Text)
			if lm == nil {
				rec.problem("detect.live tick %d: Slack alert without Context or xname: %q", t, att.Text)
				continue
			}
			key := att.Title + "/" + lm[2]
			pd, ok := k.pending[key]
			if !ok {
				if t >= 0 {
					rec.problem("detect.live tick %d: Slack holds an alert nobody injected, or a second one: %s", t, key)
				}
				continue
			}
			delete(k.pending, key)
			if pd.record {
				series := "detect_switch_ms"
				if att.Title == experiments.LeakRule.Name {
					series = "detect_leak_ms"
				}
				rec.add(series, ms(pd.spent))
			}
		}
	}
	k.p.Slack.Reset()
	for key, pd := range k.pending {
		if t-pd.tick >= missAfter {
			delete(k.pending, key)
			if pd.record {
				rec.failed++
				rec.problem("detect.live: %s injected at tick %d was not in Slack %d ticks later", key, pd.tick, missAfter)
			}
		}
	}

	if !timedTick {
		return nil
	}
	start, end := panelSpan(tp.now)
	ctx, sc := statsContext(rec)
	var panel logql.Matrix
	d, err = rec.timed("panel", t, func() (err error) {
		panel, err = k.p.Warehouse.LogQL.QueryRangeContext(ctx, panelQuery, start.UnixNano(), end.UnixNano(), panelStep)
		return err
	})
	if err != nil {
		return fmt.Errorf("tick %d panel: %w", t, err)
	}
	rec.add("panel_live_ms", ms(d))
	countStats(rec, "panel_live", 1, sc)
	rec.ops(1, 1)
	if err := sameMatrix(panel, "Context", countRange(k.leaks, start, end, panelStep, panelWindow)); err != nil {
		rec.problem("detect.live tick %d: live panel: %v", t, err)
	}
	return nil
}

// run times ticks ticks, reads the per-stage split of Tick from the
// pipeline's own histograms (less what the warm-up ticks put there), then
// drains: the leaks injected last sit out their hold.
func (k *detectKernel) run(rec *recorder, ticks int) error {
	ticks = min(ticks, k.plan.maxTicks())
	for t := 0; t < ticks; t++ {
		if err := k.tick(rec, t, true); err != nil {
			return err
		}
	}
	after := k.p.Gather()
	const fam = obs.Namespace + "core_stage_duration_seconds_sum"
	var explained float64
	for _, stage := range tickStages {
		s := obs.Value(after, fam, "stage", stage) - obs.Value(k.atStart, fam, "stage", stage)
		rec.counts["stage_"+stage+"_s"] = s
		explained += s
	}
	var wall float64
	for _, v := range rec.series["tick_ms"] {
		wall += v / 1e3
	}
	rec.counts["explained_share"] = explained / wall
	for _, c := range []string{"ruler_evaluations_total", "alertmanager_alerts_received_total", "alertmanager_notifications_total", "slack_posts_total", "slack_post_retries_total", "servicenow_events_posted_total", "servicenow_post_retries_total"} {
		rec.counts[c] = obs.Value(after, obs.Namespace+c) - obs.Value(k.atStart, obs.Namespace+c)
	}
	for t := ticks; t < ticks+drainTicks; t++ {
		if err := k.tick(rec, t, false); err != nil {
			return err
		}
	}
	for key, pd := range k.pending {
		if pd.record {
			rec.failed++
			rec.problem("detect.live: %s injected at tick %d never reached Slack", key, pd.tick)
		}
	}
	return nil
}
