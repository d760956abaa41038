package core

import (
	"time"

	"shastamon/internal/vmalert"
)

// MetaRules is the built-in self-monitoring rule pack: the pipeline
// alerting on its own health. The rules are plain vmalert rules over the
// shastamon_* series the vmagent self-scrape lands in the warehouse TSDB,
// evaluated by the same engine and delivered through the same
// Alertmanager -> Slack (and, for critical ones, ServiceNow) path as
// hardware alerts — SERVIMON's "monitor the monitoring" on the single
// pane of glass. Enabled via Options.MetaAlerts; every alert carries
// source="shastamon" so routes and dashboards can tell self-alerts from
// hardware ones.
func MetaRules() []vmalert.Rule {
	return []vmalert.Rule{
		{
			// The headline guard: the error budget of the detection-latency
			// SLO is being consumed faster than it accrues. Burn rate is
			// breach-fraction over allowed fraction, so >1 always means the
			// objective will be missed if the trend holds.
			Name:   "ShastamonDetectionSLOBurn",
			Expr:   `max(shastamon_slo_burn_rate) by (rule) > 1`,
			Labels: map[string]string{"severity": "critical", "source": "shastamon"},
			Annotations: map[string]string{
				"summary": "Detection-latency SLO error budget burning for rule {{ $labels.rule }} (burn rate {{ $value }})",
			},
		},
		{
			// A breaker that stays open means a dependency (Slack,
			// ServiceNow, an exporter) has been down long enough that
			// alerts or samples are piling up behind it.
			Name:   "ShastamonBreakerStuckOpen",
			Expr:   `max(shastamon_breaker_state) by (dependency) >= 2`,
			For:    10 * time.Second,
			Labels: map[string]string{"severity": "critical", "source": "shastamon"},
			Annotations: map[string]string{
				"summary": "Circuit breaker for {{ $labels.dependency }} stuck open — deliveries are failing fast",
			},
		},
		{
			// Poison records are quarantined, not lost, but growth means a
			// producer or parser regressed and evidence is leaving the
			// alerting path.
			Name:   "ShastamonDLQGrowth",
			Expr:   `sum(increase(shastamon_dlq_records_total[10m])) by (topic) > 0`,
			Labels: map[string]string{"severity": "warning", "source": "shastamon"},
			Annotations: map[string]string{
				"summary": "Dead-letter queue for topic {{ $labels.topic }} grew by {{ $value }} record(s) in 10m",
			},
		},
		{
			// Retention dropped offsets a consumer group had not committed:
			// the group fell further behind than the broker's byte or age
			// bound, and those messages never reach the warehouse. The
			// count is exact per group, so the alert says what was lost.
			Name:   "ShastamonKafkaRetentionSkipped",
			Expr:   `sum(increase(shastamon_kafka_retention_skipped_total[10m])) by (group, topic) > 0`,
			Labels: map[string]string{"severity": "warning", "source": "shastamon"},
			Annotations: map[string]string{
				"summary": "Kafka retention dropped {{ $value }} unread offset(s) of {{ $labels.topic }} before group {{ $labels.group }} consumed them (10m)",
			},
		},
		{
			// Stage errors are isolated per tick, so the pipeline keeps
			// running — this is the signal that it is running degraded.
			Name:   "ShastamonStageErrors",
			Expr:   `sum(increase(shastamon_stage_errors_total[5m])) by (stage) > 0`,
			Labels: map[string]string{"severity": "warning", "source": "shastamon"},
			Annotations: map[string]string{
				"summary": "Pipeline stage {{ $labels.stage }} failed {{ $value }} time(s) in 5m",
			},
		},
		{
			// Slow queries are logged on /debug/slowlog; this turns the log
			// into a page so capacity problems surface before users complain
			// about dashboards.
			Name:   "ShastamonQuerySlow",
			Expr:   `sum(increase(shastamon_query_slow_total[10m])) by (engine) > 0`,
			Labels: map[string]string{"severity": "warning", "source": "shastamon"},
			Annotations: map[string]string{
				"summary": "{{ $value }} slow {{ $labels.engine }} query(ies) in 10m — see /debug/slowlog",
			},
		},
		{
			// A query hit a hard guardrail (bytes budget, timeout, or a
			// manual kill) and was cancelled mid-scan. Someone's query — or
			// the limit — needs attention.
			Name:   "ShastamonQueryLimitBreached",
			Expr:   `sum(increase(shastamon_query_limit_breached_total[10m])) by (reason) > 0`,
			Labels: map[string]string{"severity": "warning", "source": "shastamon"},
			Annotations: map[string]string{
				"summary": "{{ $value }} query(ies) cancelled ({{ $labels.reason }}) in 10m — see /debug/slowlog",
			},
		},
		{
			// The durability layer tripped its disk breaker: ingest continues
			// in-memory (availability over durability), but a crash now loses
			// the unlogged window. Warning severity — data is still flowing —
			// so it lands in Slack without opening a ServiceNow incident.
			Name:   "ShastamonWALDegraded",
			Expr:   `max(shastamon_wal_degraded) by (store) > 0`,
			Labels: map[string]string{"severity": "warning", "source": "shastamon"},
			Annotations: map[string]string{
				"summary": "WAL for the {{ $labels.store }} store degraded — ingest is memory-only until the disk recovers",
			},
		},
		{
			// The query frontend is shedding load: its admission queue
			// filled and range queries are being rejected with 429s. Either
			// something is hammering the query API or the concurrency limit
			// no longer matches the hardware.
			Name:   "ShastamonQueryQueueSaturated",
			Expr:   `sum(increase(shastamon_query_frontend_queue_rejected_total[5m])) > 0`,
			Labels: map[string]string{"severity": "warning", "source": "shastamon"},
			Annotations: map[string]string{
				"summary": "Query frontend shed {{ $value }} range query(ies) in 5m — queue saturated, clients see 429s",
			},
		},
		{
			// The results cache is churning: entries are evicted faster than
			// refreshes can reuse them, so the byte budget is undersized for
			// the dashboard set and the cache stops absorbing refresh load.
			Name:   "ShastamonQueryCacheThrash",
			Expr:   `sum(increase(shastamon_query_result_cache_evictions_total[10m])) > 64`,
			Labels: map[string]string{"severity": "warning", "source": "shastamon"},
			Annotations: map[string]string{
				"summary": "Results cache evicted {{ $value }} split(s) in 10m — cache bytes undersized for the refresh workload",
			},
		},
		{
			// Any bounded predictive state — an anomaly detector's series
			// map or the Drain template tree (pseudo-rule "log_templates") —
			// hit its memory cap: new series or log shapes are no longer
			// scored, so early warnings are silently blind there.
			Name:   "ShastamonAnomalyDetectorSaturated",
			Expr:   `max(shastamon_anomaly_detector_saturated) by (rule) > 0`,
			Labels: map[string]string{"severity": "warning", "source": "shastamon"},
			Annotations: map[string]string{
				"summary": "Anomaly detector state for {{ $labels.rule }} hit its memory bound — new series are dropped unscored",
			},
		},
		{
			// A burst of never-before-seen log templates is the classic
			// prelude to a novel failure mode (Park et al.): something is
			// emitting shapes the cluster has not logged before.
			Name:   "ShastamonNovelTemplateBurst",
			Expr:   `sum(increase(shastamon_templates_novel_total[10m])) > 24`,
			Labels: map[string]string{"severity": "warning", "source": "shastamon"},
			Annotations: map[string]string{
				"summary": "{{ $value }} novel log template(s) mined in 10m — an unfamiliar failure shape is emerging; see /debug/templates",
			},
		},
		{
			// A stale scrape target silently freezes every rule that reads
			// its series; staleness runs on scrape timestamps so it tracks
			// simulated time in experiments too.
			Name:   "ShastamonScrapeStale",
			Expr:   `max(shastamon_scrape_staleness_seconds) by (target) > 120`,
			Labels: map[string]string{"severity": "warning", "source": "shastamon"},
			Annotations: map[string]string{
				"summary": "Scrape target {{ $labels.target }} stale for {{ $value }}s",
			},
		},
	}
}
