// Package tsdb implements an in-process time-series database in the mould
// of VictoriaMetrics: label-indexed series of (timestamp, value) samples.
// It is the metrics half of the paper's dual pipeline ("as a rule, we send
// metrics to VictoriaMetrics ... and logs to Loki").
//
// Series live in a series.Index (striping, tenants, quotas, selection),
// like the log store's streams: see internal/series.
//
// Timestamps are Unix milliseconds, the Prometheus convention (the log
// store uses nanoseconds, the Loki convention).
package tsdb

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"shastamon/internal/labels"
	"shastamon/internal/obs"
	"shastamon/internal/parallel"
	"shastamon/internal/series"
	"shastamon/internal/stats"
	"shastamon/internal/tenant"
	"shastamon/internal/wal"
)

// Sample is one (timestamp, value) pair. T is Unix milliseconds.
type Sample struct {
	T int64
	V float64
}

// MetricNameLabel is the reserved label holding the metric name.
const MetricNameLabel = "__name__"

// ErrOutOfOrder is returned when appending a sample older than the series
// head. The sample is dropped.
var ErrOutOfOrder = errors.New("tsdb: out-of-order sample")

// ErrMaxSeries rejects a new series when the tenant's series quota is
// exhausted.
var ErrMaxSeries = errors.New("tsdb: per-tenant series limit exceeded")

// ErrReservedLabel rejects appends carrying the internal __tenant__ label
// the WAL uses to persist series ownership.
var ErrReservedLabel = series.ErrReservedLabel

// memSeries is one label set of one tenant; Data holds its samples in
// timestamp order, guarded by the series lock.
type memSeries = series.Node[[]Sample, tenantData]

// tenantData is the head's per-tenant append counter; Stats sums them.
type tenantData struct{ samples atomic.Int64 }

// DB is an in-memory TSDB safe for concurrent use.
type DB struct {
	obsOnce sync.Once
	obsReg  *obs.Registry

	idx *series.Index[[]Sample, tenantData]

	dropped       atomic.Int64
	queryInFlight atomic.Int64

	// dur is the durability layer (WAL + checkpoint); nil for a
	// memory-only DB. See durable.go.
	dur *wal.Durable

	// overrides resolve per-tenant series quotas.
	overrides *tenant.Overrides
}

// New returns an empty DB with GOMAXPROCS shards.
func New() *DB { return NewSharded(0) }

// NewSharded returns an empty DB striped over n shards; n <= 0 takes
// GOMAXPROCS.
func NewSharded(n int) *DB {
	db := &DB{}
	quota := func(id string) int64 { return int64(db.overrides.For(id).MaxStreams) }
	db.idx = series.New[[]Sample, tenantData](parallel.Workers(n), 0, ErrMaxSeries, quota, nil, nil)
	return db
}

// SetTenantOverrides installs per-tenant series quotas. Call during
// setup, before any append: quotas are checked as series are created.
func (db *DB) SetTenantOverrides(o *tenant.Overrides) { db.overrides = o }

// Shards returns the number of lock stripes the DB runs.
func (db *DB) Shards() int { return db.idx.Stripes() }

// QueryParallelism reports the number of in-flight query workers.
func (db *DB) QueryParallelism() int64 { return db.queryInFlight.Load() }

// Append adds one sample to the series identified by ls. ls must include
// the metric name under MetricNameLabel (use Labels.With).
func (db *DB) Append(ls labels.Labels, t int64, v float64) error {
	return db.AppendTenant(tenant.DefaultID, ls, t, v)
}

// AppendTenant is Append into one tenant's namespace, enforcing the
// tenant's series quota.
func (db *DB) AppendTenant(id string, ls labels.Labels, t int64, v float64) error {
	if ls.Get(MetricNameLabel) == "" {
		return fmt.Errorf("tsdb: missing %s label in %s", MetricNameLabel, ls)
	}
	ts := db.idx.Tenant(id)
	s, stripe, err := db.idx.GetOrCreate(ts, ls)
	if err != nil {
		return err
	}
	s.Lock()
	defer s.Unlock()
	if n := len(s.Data); n > 0 && t < s.Data[n-1].T {
		db.dropped.Add(1)
		return ErrOutOfOrder
	}
	if n := len(s.Data); n > 0 && t == s.Data[n-1].T {
		s.Data[n-1].V = v // overwrite duplicate timestamp, like VM
	} else {
		s.Data = append(s.Data, Sample{T: t, V: v})
	}
	// durable: log the accepted sample while still under the series lock,
	// the checkpoint's drain lock.
	if db.dur != nil && db.dur.Armed() {
		db.dur.Append(stripe, appendSample(s.WALHeader(wal.RecSample), t, v))
	}
	ts.Data.samples.Add(1)
	return nil
}

// AppendMetric is a convenience wrapper building the label set from a
// metric name and extra labels.
func (db *DB) AppendMetric(name string, extra labels.Labels, t int64, v float64) error {
	return db.Append(extra.With(MetricNameLabel, name), t, v)
}

// AppendMetricTenant is AppendMetric into one tenant's namespace.
func (db *DB) AppendMetricTenant(id, name string, extra labels.Labels, t int64, v float64) error {
	return db.AppendTenant(id, extra.With(MetricNameLabel, name), t, v)
}

// sampleCost is the nominal scanned-byte cost of one (int64, float64)
// sample, used for the per-query byte accounting and scan budget.
const sampleCost = 16

// SeriesData is a query result: a label set and its samples in range.
type SeriesData struct {
	Labels  labels.Labels
	Samples []Sample
}

// Select returns samples in [mint, maxt] (ms, inclusive) for every series
// matching all matchers, ordered by label string. Candidate series are
// copied out in parallel on a bounded worker pool.
func (db *DB) Select(sel []*labels.Matcher, mint, maxt int64) []SeriesData {
	out, _ := db.SelectContext(context.Background(), sel, mint, maxt)
	return out
}

// SelectContext is Select with cancellation and per-query statistics: a
// stats.Context carried by ctx (if any) counts copied samples as scanned
// lines (at sampleCost bytes each, so the scan budget covers metric
// queries too) plus series and shard fan-out. A cancelled ctx stops the
// scan and returns its cause.
func (db *DB) SelectContext(ctx context.Context, sel []*labels.Matcher, mint, maxt int64) ([]SeriesData, error) {
	sc := stats.FromContext(ctx)
	started := time.Now()
	cand := db.idx.Select(db.idx.Peek(tenant.ID(ctx)), sel)
	touched := db.idx.Touched(cand)
	sc.AddShardsTouched(int64(touched))
	sc.AddStreams(int64(len(cand)))
	out := db.collect(cand, func(data []Sample) []Sample {
		if ctx.Err() != nil {
			return nil
		}
		lo := sort.Search(len(data), func(j int) bool { return data[j].T >= mint })
		hi := sort.Search(len(data), func(j int) bool { return data[j].T > maxt })
		if lo >= hi {
			return nil
		}
		var w stats.Worker
		w.LinesProcessed = int64(hi - lo)
		w.BytesProcessed = int64(hi-lo) * sampleCost
		w.FlushTo(sc)
		samples := make([]Sample, hi-lo)
		copy(samples, data[lo:hi])
		return samples
	})
	sc.AddSpan("tsdb.select", started, time.Now(),
		fmt.Sprintf("%d series over %d shards", len(cand), touched))
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	return out, nil
}

// LatestBefore returns, for each matching series, the newest sample at or
// before ts but not older than ts-lookback. This implements PromQL instant
// vector semantics.
func (db *DB) LatestBefore(sel []*labels.Matcher, ts, lookbackMS int64) []SeriesData {
	return db.LatestBeforeContext(context.Background(), sel, ts, lookbackMS)
}

// LatestBeforeContext is LatestBefore within the context's tenant
// namespace — the PromQL instant path.
func (db *DB) LatestBeforeContext(ctx context.Context, sel []*labels.Matcher, ts, lookbackMS int64) []SeriesData {
	return db.collect(db.idx.Select(db.idx.Peek(tenant.ID(ctx)), sel), func(data []Sample) []Sample {
		hi := sort.Search(len(data), func(j int) bool { return data[j].T > ts })
		if hi > 0 && data[hi-1].T >= ts-lookbackMS {
			return []Sample{data[hi-1]}
		}
		return nil
	})
}

// collect runs pick over every candidate's samples, under its lock, on the
// worker pool, and returns the non-empty picks ordered by label string.
// pick must copy what it returns.
func (db *DB) collect(cand []*memSeries, pick func([]Sample) []Sample) []SeriesData {
	results := make([][]Sample, len(cand))
	parallel.Do(len(cand), parallel.Workers(0), &db.queryInFlight, func(i int) {
		cand[i].Lock()
		results[i] = pick(cand[i].Data)
		cand[i].Unlock()
	})
	out := make([]SeriesData, 0, len(cand))
	for i, s := range cand {
		if len(results[i]) > 0 {
			out = append(out, SeriesData{Labels: s.Labels, Samples: results[i]})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Labels.String() < out[j].Labels.String() })
	return out
}

// Series returns label sets of the default tenant's matching series.
func (db *DB) Series(sel []*labels.Matcher) []labels.Labels {
	return db.SeriesTenant(tenant.DefaultID, sel)
}

// SeriesTenant is Series within one tenant's namespace.
func (db *DB) SeriesTenant(id string, sel []*labels.Matcher) []labels.Labels {
	return db.idx.Series(id, sel)
}

// LabelValues returns distinct values of a label across the default
// tenant's series.
func (db *DB) LabelValues(name string) []string {
	return db.LabelValuesTenant(tenant.DefaultID, name)
}

// LabelValuesTenant is LabelValues within one tenant's namespace.
func (db *DB) LabelValuesTenant(id, name string) []string {
	return db.idx.LabelValues(id, name)
}

// DeleteBefore drops samples older than ts (ms) and removes series that
// become empty. It returns the number of samples dropped.
func (db *DB) DeleteBefore(ts int64) int {
	dropped := 0
	db.idx.Sweep(func(s *memSeries) bool {
		lo := sort.Search(len(s.Data), func(i int) bool { return s.Data[i].T >= ts })
		dropped += lo
		if lo > 0 {
			s.Data = append([]Sample(nil), s.Data[lo:]...)
		}
		return len(s.Data) == 0
	})
	return dropped
}

// Stats reports counters.
type Stats struct {
	Series  int
	Samples int64
	Dropped int64
}

// Stats returns a snapshot of DB counters.
func (db *DB) Stats() Stats {
	st := Stats{Series: int(db.idx.Live()), Dropped: db.dropped.Load()}
	for _, ts := range db.idx.Tenants() {
		st.Samples += ts.Data.samples.Load()
	}
	return st
}

// TenantStat is one tenant's slice of the head accounting.
type TenantStat struct {
	Tenant  string
	Series  int64
	Samples int64
}

// TenantStats snapshots per-tenant counters, sorted by tenant ID.
func (db *DB) TenantStats() []TenantStat {
	var out []TenantStat
	for _, ts := range db.idx.Tenants() {
		out = append(out, TenantStat{Tenant: ts.ID, Series: ts.Live(), Samples: ts.Data.samples.Load()})
	}
	return out
}
