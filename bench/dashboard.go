package main

import (
	"context"
	"fmt"
	"time"

	"shastamon/internal/experiments"
	"shastamon/internal/frontend"
	"shastamon/internal/logql"
	"shastamon/internal/loki"
	"shastamon/internal/omni"
	"shastamon/internal/promql"
	"shastamon/internal/stats"
)

const (
	// panelQuery is Fig. 5 as a dashboard panel: one hour at a 1m step.
	panelQuery  = `sum(count_over_time({data_type="redfish_event"} |= "CabinetLeakDetected" | json [5m])) by (Context)`
	panelRange  = time.Hour
	panelStep   = time.Minute
	panelWindow = 5 * time.Minute

	tempQuery     = `cray_telemetry_temperature > 85`
	tempThreshold = 85

	// syslogQuery reads every syslog stream: its decompressed working
	// set is larger than dashCacheBytes, the Fig. 5 and Fig. 8 sets fit.
	syslogQuery  = `sum(count_over_time({data_type="syslog"}[15m])) by (hostname)`
	syslogWindow = 15 * time.Minute

	// dashCacheBytes is this kernel's block cache, a sixteenth of the
	// default: small enough for one stored hour to overflow.
	dashCacheBytes = 4 << 20

	refreshStep       = 10 * time.Second
	refreshesPerRound = 6  // one simulated minute, so every round shifts the panel window once
	maxRounds         = 45 // rounds advance a minute each through the last 45 of the stored two hours
	dashboardHours    = 2  // so that every round's panel looks back over a full hour of data
)

// dashboardKernel is query.dashboard: read-only over two stored hours. A
// round is what the rule evaluators and an operator's screen ask for in
// one simulated minute: one rule evaluation (the Fig. 5 | json and Fig. 8
// | pattern instant queries, a PromQL threshold, and a syslog-wide count
// by hostname), one cold panel (Fig. 5 over 1h at 1m, results cache
// bypassed) and six panel refreshes 10 s apart with the cache on.
type dashboardKernel struct {
	wh   *omni.Warehouse
	hist *history
	now  time.Time // the frontend's clock: cache freshness is judged against it
}

func setupDashboard(seed int64, syslogLines int) (*dashboardKernel, error) {
	k := &dashboardKernel{hist: dashboardHistory(seed, syslogLines), now: t0}
	limits := loki.DefaultLimits()
	limits.ChunkCacheBytes = dashCacheBytes
	k.wh = omni.New(omni.Config{LokiLimits: limits, Frontend: frontend.Config{Now: func() time.Time { return k.now }}})
	if err := preload(k.wh, k.hist); err != nil {
		return nil, err
	}
	// One untimed round fills lazily built state and proves the
	// reference before anything is timed.
	rec := newRecorder(false)
	if err := k.round(rec, -1); err != nil {
		return nil, err
	}
	if len(rec.problems) > 0 {
		return nil, fmt.Errorf("warm-up round: %s", rec.problems[0])
	}
	return k, nil
}

func preload(wh *omni.Warehouse, h *history) error {
	for _, batch := range h.logs {
		if err := wh.IngestLogs(batch); err != nil {
			return fmt.Errorf("preload logs: %w", err)
		}
	}
	for _, s := range h.samples {
		if err := wh.IngestMetric(s.name, s.labels, s.ms, s.v); err != nil {
			return fmt.Errorf("preload samples: %w", err)
		}
	}
	return nil
}

// panelSpan aligns a panel's range to its step the way Grafana does, so
// refreshes 5 s apart ask for the same steps until the minute turns.
func panelSpan(now time.Time) (start, end time.Time) {
	end = now.Truncate(panelStep)
	return end.Add(-panelRange), end
}

// statsContext attaches a statistics collector when the run is traced;
// untraced runs query under a bare context.
func statsContext(rec *recorder) (context.Context, *stats.Context) {
	if rec.tr == nil {
		return context.Background(), nil
	}
	return stats.NewContext(context.Background())
}

// countStats books what the engines report for one class of query.
func countStats(rec *recorder, class string, requests int, sc *stats.Context) {
	if sc == nil {
		return
	}
	s := sc.Snapshot()
	rec.counts[class+"_requests"] += float64(requests)
	rec.counts[class+"_lines"] += float64(s.Summary.TotalLinesProcessed)
	rec.counts[class+"_splits"] += float64(s.Summary.Splits)
	rec.counts[class+"_shards"] += float64(s.Summary.Shards)
	rec.counts[class+"_queue_s"] += s.Summary.QueueTime
	rec.counts[class+"_result_hits"] += float64(s.Frontend.ResultCacheHits)
	rec.counts[class+"_result_misses"] += float64(s.Frontend.ResultCacheMisses)
}

func (k *dashboardKernel) round(rec *recorder, r int) error {
	at := t0.Add(time.Duration(r-maxRounds) * time.Minute)
	k.now = at
	var leaks, switches, syslog logql.Vector
	var temps promql.Vector
	ctx, sc := statsContext(rec)
	d, err := rec.timed("query:rule", r, func() (err error) {
		if leaks, err = k.wh.LogQL.QueryInstantContext(ctx, experiments.LeakRule.Expr, at.UnixNano()); err != nil {
			return err
		}
		if switches, err = k.wh.LogQL.QueryInstantContext(ctx, experiments.SwitchRule.Expr, at.UnixNano()); err != nil {
			return err
		}
		if temps, err = k.wh.PromQL.QueryContext(ctx, tempQuery, at.UnixMilli()); err != nil {
			return err
		}
		syslog, err = k.wh.LogQL.QueryInstantContext(ctx, syslogQuery, at.UnixNano())
		return err
	})
	if err != nil {
		return fmt.Errorf("rule queries: %w", err)
	}
	rec.add("rule_query_ms", ms(d))
	countStats(rec, "rule", 4, sc)

	start, end := panelSpan(at)
	var cold logql.Matrix
	ctx, sc = statsContext(rec)
	d, err = rec.timed("query:panel_cold", r, func() (err error) {
		cold, err = k.wh.LogQL.QueryRangeContext(frontend.WithoutCache(ctx), panelQuery, start.UnixNano(), end.UnixNano(), panelStep)
		return err
	})
	if err != nil {
		return fmt.Errorf("cold panel: %w", err)
	}
	rec.add("panel_cold_ms", ms(d))
	countStats(rec, "panel_cold", 1, sc)

	refreshed := make([]logql.Matrix, refreshesPerRound)
	ctx, sc = statsContext(rec)
	d, err = rec.timed("query:panel_refresh", r, func() (err error) {
		for j := range refreshed {
			k.now = at.Add(time.Duration(j) * refreshStep)
			s, e := panelSpan(k.now)
			if refreshed[j], err = k.wh.LogQL.QueryRangeContext(ctx, panelQuery, s.UnixNano(), e.UnixNano(), panelStep); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("panel refresh: %w", err)
	}
	rec.add("panel_refresh_ms", ms(d)/refreshesPerRound)
	countStats(rec, "panel_refresh", refreshesPerRound, sc)
	rec.ops(4+1+refreshesPerRound, 4+1+refreshesPerRound)

	// Every answer against the linear scan.
	check := func(what string, err error) {
		if err != nil {
			rec.problem("query.dashboard round %d: %s: %v", r, what, err)
		}
	}
	got, err := byLabel(logRows(leaks), "Context")
	if err == nil {
		err = sameVector(got, countWindow(k.hist.leaks, at, time.Hour))
	}
	check("Fig. 5 rule", err)
	if got, err = byLabel(logRows(switches), "xname"); err == nil {
		err = sameVector(got, countWindow(k.hist.switches, at, 5*time.Minute))
	}
	check("Fig. 8 rule", err)
	if got, err = byLabel(metricRows(temps), "xname"); err == nil {
		err = sameVector(got, above(k.hist.temps, at, tempThreshold))
	}
	check("temperature threshold", err)
	if got, err = byLabel(logRows(syslog), "hostname"); err == nil {
		err = sameVector(got, countWindow(k.hist.syslog, at, syslogWindow))
	}
	check("syslog count", err)
	want := countRange(k.hist.leaks, start, end, panelStep, panelWindow)
	check("cold panel", sameMatrix(cold, "Context", want))
	for j, m := range refreshed {
		// Every refresh of a round falls in the same minute as the cold panel.
		check(fmt.Sprintf("panel refresh %d", j), sameMatrix(m, "Context", want))
	}
	return nil
}

func (k *dashboardKernel) close() {}

// run times rounds rounds — a round is the sample unit of all three
// query classes — and books the caches' counters; the warm-up round's
// share in them is negligible.
func (k *dashboardKernel) run(rec *recorder, rounds int) error {
	for r := 0; r < min(rounds, maxRounds); r++ {
		if err := k.round(rec, r); err != nil {
			return err
		}
	}
	bc := k.wh.Logs.CacheStats()
	rec.counts["block_cache_hits"] = float64(bc.Hits)
	rec.counts["block_cache_misses"] = float64(bc.Misses)
	rec.counts["block_cache_evictions"] = float64(bc.Evictions)
	rec.counts["frontend_rejected"] = float64(k.wh.Frontend.Rejected())
	rec.counts["dashboard_raw_bytes"] = float64(k.wh.Stats().LogStore.RawBytes)
	return nil
}
