// Package omni implements the Operations Monitoring and Notification
// Infrastructure: NERSC's data warehouse keeping "up to two years of
// operational data immediately available". It fronts the two stores of
// the dual pipeline — Loki for logs, the TSDB for metrics — with a single
// ingest façade, unified query engines, retention enforcement, and the
// ingest-rate accounting the paper's 400,000 messages/second claim is
// benchmarked against.
package omni

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"shastamon/internal/eventsearch"
	"shastamon/internal/frontend"
	"shastamon/internal/labels"
	"shastamon/internal/logql"
	"shastamon/internal/loki"
	"shastamon/internal/obs"
	"shastamon/internal/promql"
	"shastamon/internal/promtext"
	"shastamon/internal/stats"
	"shastamon/internal/tenant"
	"shastamon/internal/tsdb"
	"shastamon/internal/wal"
)

// Config sizes the warehouse.
type Config struct {
	// Retention is how long data is kept; the paper's OMNI keeps two
	// years. Zero keeps everything.
	Retention time.Duration
	// LokiLimits configures the log store.
	LokiLimits loki.Limits
	// IndexEvents additionally feeds ingested log lines into the
	// Elasticsearch-style full-text index (OMNI is "backed by ...
	// Elasticsearch and VictoriaMetrics"). Off by default: the label
	// index is the hot path; full-text costs write-time work.
	IndexEvents bool
	// DownsampleAfter, when positive, replaces metric samples older than
	// this horizon with DownsampleResolution averages during retention
	// enforcement — how a two-year window stays affordable.
	DownsampleAfter      time.Duration
	DownsampleResolution time.Duration // default 5m
	// Shards stripes both stores (log streams and metric series) over
	// this many lock shards; 0 = GOMAXPROCS. An explicit
	// LokiLimits.Shards wins for the log store.
	Shards int

	// DataDir, when set (and the warehouse is built with Open), roots the
	// durable state: per-shard WALs, sealed-chunk spill files and
	// checkpoints for both stores under DataDir/logs and DataDir/metrics.
	// Empty keeps the warehouse memory-only (New ignores this field).
	DataDir string
	// WAL tunes the write-ahead logs and the disk-degradation breaker
	// when DataDir is set.
	WAL wal.StoreOptions
	// CheckpointEvery bounds WAL replay: MaybeCheckpoint snapshots both
	// stores at most this often (default 1m).
	CheckpointEvery time.Duration

	// Frontend sizes the query frontend both engines route range
	// queries through (time splitting, shard fan-out, the step-aligned
	// results cache and query admission control). The zero value takes
	// the frontend defaults.
	Frontend frontend.Config

	// TenantOverrides supplies per-tenant limits (stream/series counts,
	// ingest rate, chunk-cache share, query concurrency) to every layer
	// of the warehouse: the log store, the metrics store and the query
	// frontend. Nil leaves everything single-tenant-unbounded, and any
	// explicit LokiLimits.TenantOverrides or Frontend.TenantOverrides
	// wins for its layer.
	TenantOverrides *tenant.Overrides
}

// Warehouse is the OMNI façade.
type Warehouse struct {
	Logs    *loki.Store
	Metrics *tsdb.DB
	Events  *eventsearch.Index
	LogQL   *logql.Engine
	PromQL  *promql.Engine
	// Tracker registers every warehouse query for per-query statistics,
	// /debug/queries visibility, runaway-query limits and the slow-query
	// log. Both query engines share it.
	Tracker *stats.Tracker
	// Frontend is the shared query frontend both engines route range
	// queries through; retention invalidates its results cache.
	Frontend *frontend.Frontend

	retention       time.Duration
	indexEvents     bool
	downsampleAfter time.Duration
	downsampleRes   time.Duration

	// Ingest accounting is lock-free: the ingest hot path only does
	// atomic adds, keeping the 400k msgs/s accounting off the mutex the
	// old implementation serialised every batch through.
	logMessages atomic.Int64
	logBytes    atomic.Int64
	samples     atomic.Int64
	windowStart atomic.Int64 // Unix nanoseconds of the last rate-window reset
	windowCount atomic.Int64

	// durable is set by Open when a DataDir is configured; checkpointEvery
	// and lastCkpt drive MaybeCheckpoint's bounded-replay schedule.
	durable         bool
	checkpointEvery time.Duration
	lastCkpt        atomic.Int64 // Unix nanoseconds
	recovery        Recovery

	reg *obs.Registry

	// faultHook, when set, is consulted before each ingest with the
	// operation name ("logs" or "metric"); a non-nil return aborts the
	// ingest. The chaos harness injects warehouse outages through it.
	faultHook atomic.Value // func(op string) error
}

// New builds an empty warehouse.
func New(cfg Config) *Warehouse {
	if cfg.LokiLimits == (loki.Limits{}) {
		cfg.LokiLimits = loki.DefaultLimits()
	}
	if cfg.LokiLimits.Shards == 0 {
		cfg.LokiLimits.Shards = cfg.Shards
	}
	if cfg.TenantOverrides != nil {
		if cfg.LokiLimits.TenantOverrides == nil {
			cfg.LokiLimits.TenantOverrides = cfg.TenantOverrides
		}
		if cfg.Frontend.TenantOverrides == nil {
			cfg.Frontend.TenantOverrides = cfg.TenantOverrides
		}
	}
	logs := loki.NewStore(cfg.LokiLimits)
	metrics := tsdb.NewSharded(cfg.Shards)
	if cfg.TenantOverrides != nil {
		metrics.SetTenantOverrides(cfg.TenantOverrides)
	}
	if cfg.DownsampleResolution <= 0 {
		cfg.DownsampleResolution = 5 * time.Minute
	}
	w := &Warehouse{
		Logs:            logs,
		Metrics:         metrics,
		Events:          eventsearch.New(),
		LogQL:           logql.NewEngine(logs),
		PromQL:          promql.NewEngine(metrics),
		retention:       cfg.Retention,
		indexEvents:     cfg.IndexEvents,
		downsampleAfter: cfg.DownsampleAfter,
		downsampleRes:   cfg.DownsampleResolution,
		reg:             obs.NewRegistry(),
	}
	w.Tracker = stats.NewTracker(w.reg, stats.Config{
		MaxBytesScanned: cfg.LokiLimits.MaxBytesScanned,
		Timeout:         cfg.LokiLimits.QueryTimeout,
		SlowThreshold:   time.Duration(cfg.LokiLimits.SlowQuerySeconds * float64(time.Second)),
	})
	w.LogQL.SetTracker(w.Tracker)
	w.PromQL.SetTracker(w.Tracker)
	w.Frontend = frontend.New(cfg.Frontend)
	w.Frontend.Register(w.reg)
	w.LogQL.SetFrontend(w.Frontend)
	w.PromQL.SetFrontend(w.Frontend)
	w.reg.Collect(func() []promtext.Family {
		return []promtext.Family{
			obs.Fam("counter", obs.Namespace+"omni_log_messages_total",
				"Log messages ingested by the warehouse.", float64(w.logMessages.Load())),
			obs.Fam("counter", obs.Namespace+"omni_log_bytes_total",
				"Log bytes ingested by the warehouse.", float64(w.logBytes.Load())),
			obs.Fam("counter", obs.Namespace+"omni_samples_total",
				"Metric samples ingested by the warehouse.", float64(w.samples.Load())),
			obs.Fam("gauge", obs.Namespace+"omni_ingest_rate",
				"Messages/second over the current rate window.",
				w.RateWindow(time.Now())),
			obs.Sample(obs.Fam("gauge", obs.Namespace+"omni_query_parallelism",
				"In-flight query-engine workers, by engine.",
				float64(w.LogQL.QueryParallelism()), "engine", "logql"),
				float64(w.PromQL.QueryParallelism()), "engine", "promql"),
		}
	})
	return w
}

// ObsMetrics exposes the warehouse's self-monitoring registry.
func (w *Warehouse) ObsMetrics() *obs.Registry { return w.reg }

// SetFaultHook installs (or, with nil, clears) an ingestion fault hook.
func (w *Warehouse) SetFaultHook(hook func(op string) error) {
	w.faultHook.Store(&hook)
}

func (w *Warehouse) ingestFault(op string) error {
	p, _ := w.faultHook.Load().(*func(op string) error)
	if p == nil || *p == nil {
		return nil
	}
	return (*p)(op)
}

// IngestLogs pushes log streams into the log store (and, when
// IndexEvents is on, into the full-text index) under the default tenant.
func (w *Warehouse) IngestLogs(batch []loki.PushStream) error {
	return w.IngestLogsTenant(tenant.DefaultID, batch)
}

// IngestLogsTenant is IngestLogs into the named tenant's namespace,
// subject to that tenant's stream and ingest-rate limits.
func (w *Warehouse) IngestLogsTenant(id string, batch []loki.PushStream) error {
	if err := w.ingestFault("logs"); err != nil {
		return fmt.Errorf("omni: ingest logs: %w", err)
	}
	err := w.Logs.PushTenant(id, batch)
	if err != nil && errors.Is(err, loki.ErrRateLimited) {
		// The whole batch was shed before ingestion: nothing to count or
		// index.
		return err
	}
	var n, bytes int64
	for _, ps := range batch {
		n += int64(len(ps.Entries))
		for _, e := range ps.Entries {
			bytes += int64(len(e.Line))
		}
		if w.indexEvents {
			fields := ps.Labels.Map()
			for _, e := range ps.Entries {
				w.Events.Add(time.Unix(0, e.Timestamp), fields, e.Line)
			}
		}
	}
	w.logMessages.Add(n)
	w.logBytes.Add(bytes)
	w.windowCount.Add(n)
	return err
}

// IngestMetric appends one sample to the metrics store.
func (w *Warehouse) IngestMetric(name string, ls labels.Labels, tsMillis int64, v float64) error {
	if err := w.ingestFault("metric"); err != nil {
		return fmt.Errorf("omni: ingest metric: %w", err)
	}
	err := w.Metrics.AppendMetric(name, ls, tsMillis, v)
	w.samples.Add(1)
	w.windowCount.Add(1)
	return err
}

// QueryLogs runs a LogQL query through the warehouse; the tracker
// observes its latency under engine="logql".
func (w *Warehouse) QueryLogs(q string, start, end int64) ([]logql.ResultStream, error) {
	res, _, err := w.QueryLogsContext(context.Background(), q, start, end)
	return res, err
}

// QueryLogsContext is QueryLogs with tracker registration: the query is
// visible on /debug/queries, limit-armed and killable while it runs, and
// the returned snapshot carries its statistics.
func (w *Warehouse) QueryLogsContext(ctx context.Context, q string, start, end int64) ([]logql.ResultStream, stats.Snapshot, error) {
	qctx, finish := w.Tracker.Start(ctx, "logql", q)
	res, err := w.LogQL.QueryLogsContext(qctx, q, start, end)
	snap := finish(err)
	return res, snap, err
}

// QueryMetrics runs an instant PromQL query through the warehouse; the
// tracker observes its latency under engine="promql".
func (w *Warehouse) QueryMetrics(q string, tsMillis int64) (promql.Vector, error) {
	res, _, err := w.QueryMetricsContext(context.Background(), q, tsMillis)
	return res, err
}

// QueryMetricsContext is QueryMetrics with tracker registration.
func (w *Warehouse) QueryMetricsContext(ctx context.Context, q string, tsMillis int64) (promql.Vector, stats.Snapshot, error) {
	qctx, finish := w.Tracker.Start(ctx, "promql", q)
	res, err := w.PromQL.QueryContext(qctx, q, tsMillis)
	snap := finish(err)
	return res, snap, err
}

// Stats is a warehouse counter snapshot.
type Stats struct {
	LogMessages int64
	LogBytes    int64
	Samples     int64
	LogStore    loki.Stats
	MetricStore tsdb.Stats
}

// Stats returns counters.
func (w *Warehouse) Stats() Stats {
	s := Stats{
		LogMessages: w.logMessages.Load(),
		LogBytes:    w.logBytes.Load(),
		Samples:     w.samples.Load(),
	}
	s.LogStore = w.Logs.Stats()
	s.MetricStore = w.Metrics.Stats()
	return s
}

// RateWindowReset starts an ingest-rate measurement window.
func (w *Warehouse) RateWindowReset(now time.Time) {
	w.windowStart.Store(now.UnixNano())
	w.windowCount.Store(0)
}

// RateWindow reports messages/second since the last reset.
func (w *Warehouse) RateWindow(now time.Time) float64 {
	start := w.windowStart.Load()
	secs := time.Duration(now.UnixNano() - start).Seconds()
	if start == 0 || secs <= 0 {
		return 0
	}
	return float64(w.windowCount.Load()) / secs
}

// EnforceRetention drops data older than the retention horizon relative
// to now and, when configured, downsamples metrics older than the
// downsampling horizon. It returns (log chunks dropped, metric samples
// dropped or folded into aggregates).
func (w *Warehouse) EnforceRetention(now time.Time) (chunks, samples int) {
	if w.downsampleAfter > 0 {
		folded, err := w.Metrics.Downsample(now.Add(-w.downsampleAfter).UnixMilli(), w.downsampleRes, tsdb.AggAvg)
		if err == nil {
			samples += folded
		}
	}
	if w.retention <= 0 {
		return chunks, samples
	}
	cutoff := now.Add(-w.retention)
	chunks = w.Logs.DeleteBefore(cutoff.UnixNano())
	samples += w.Metrics.DeleteBefore(cutoff.UnixMilli())
	if w.indexEvents {
		w.Events.DeleteBefore(cutoff)
	}
	// Cached split results whose data window reaches below the horizon
	// would resurrect just-deleted data; drop them with it.
	w.Frontend.InvalidateBefore(cutoff)
	return chunks, samples
}

// RunRetention enforces retention on the interval until ctx is cancelled.
func (w *Warehouse) RunRetention(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			w.EnforceRetention(now)
		}
	}
}
