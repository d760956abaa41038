// Package tsdb implements an in-process time-series database in the mould
// of VictoriaMetrics: label-indexed series of (timestamp, value) samples.
// It is the metrics half of the paper's dual pipeline ("as a rule, we send
// metrics to VictoriaMetrics ... and logs to Loki").
//
// Like the log store, the head is sharded: series are striped over
// lock-striped shards by label fingerprint (GOMAXPROCS shards by default)
// and append statistics are atomics, so concurrent scrape targets append
// without serialising on a DB-wide mutex.
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

type series struct {
	labels labels.Labels
	fp     labels.Fingerprint
	// tenant namespaces the series, as in the log store.
	tenant string
	mu     sync.Mutex
	data   []Sample
	// walPrefix caches the series' encoded WAL record prefix (type byte
	// plus labels) for the durable append path.
	walPrefix []byte
}

// dbShard is one lock stripe of the head: its own series index.
type dbShard struct {
	mu      sync.RWMutex
	series  map[labels.Fingerprint][]*series
	ordered []*series
}

// DB is an in-memory TSDB safe for concurrent use.
type DB struct {
	obsOnce sync.Once
	obsReg  *obs.Registry

	shards []*dbShard

	seriesCount   atomic.Int64
	appends       atomic.Int64
	dropped       atomic.Int64
	queryInFlight atomic.Int64

	// dur is the durability layer (WAL + checkpoint); nil for a
	// memory-only DB. See durable.go.
	dur *wal.Durable

	// Tenant namespaces; defTenant is the lock-free default-tenant fast
	// path, overrides resolve per-tenant series quotas.
	overrides *tenant.Overrides
	defTenant *tenantState
	tmu       sync.RWMutex
	tenants   map[string]*tenantState
}

// tenantState is one tenant's slice of the head: exact series accounting
// against its quota plus append counters for the tenant metric families.
type tenantState struct {
	id        string
	maxSeries int64
	series    atomic.Int64
	samples   atomic.Int64
}

// New returns an empty DB with GOMAXPROCS shards.
func New() *DB { return NewSharded(0) }

// NewSharded returns an empty DB striped over n shards; n <= 0 takes
// GOMAXPROCS.
func NewSharded(n int) *DB {
	n = parallel.Workers(n)
	db := &DB{shards: make([]*dbShard, n)}
	for i := range db.shards {
		db.shards[i] = &dbShard{series: map[labels.Fingerprint][]*series{}}
	}
	db.tenants = map[string]*tenantState{}
	db.defTenant = db.newTenantState(tenant.DefaultID)
	db.tenants[tenant.DefaultID] = db.defTenant
	return db
}

// SetTenantOverrides installs per-tenant series quotas. Call during
// setup, before any tenant's first append: states already materialized
// keep their limits.
func (db *DB) SetTenantOverrides(o *tenant.Overrides) {
	db.overrides = o
	db.defTenant.maxSeries = int64(o.For(tenant.DefaultID).MaxStreams)
}

func (db *DB) newTenantState(id string) *tenantState {
	lim := db.overrides.For(id)
	return &tenantState{id: id, maxSeries: int64(lim.MaxStreams)}
}

func (db *DB) tenantStateFor(id string) *tenantState {
	if id == "" || id == tenant.DefaultID {
		return db.defTenant
	}
	db.tmu.RLock()
	ts := db.tenants[id]
	db.tmu.RUnlock()
	if ts != nil {
		return ts
	}
	db.tmu.Lock()
	defer db.tmu.Unlock()
	if ts = db.tenants[id]; ts == nil {
		ts = db.newTenantState(id)
		db.tenants[id] = ts
	}
	return ts
}

// Shards returns the number of lock stripes the DB runs.
func (db *DB) Shards() int { return len(db.shards) }

// QueryParallelism reports the number of in-flight query workers.
func (db *DB) QueryParallelism() int64 { return db.queryInFlight.Load() }

func (db *DB) shardFor(fp labels.Fingerprint) *dbShard {
	return db.shards[uint64(fp)%uint64(len(db.shards))]
}

func (db *DB) shardIndex(fp labels.Fingerprint) int {
	return int(uint64(fp) % uint64(len(db.shards)))
}

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
	ts := db.tenantStateFor(id)
	s, err := db.getOrCreate(ts, ls)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.data); n > 0 && t < s.data[n-1].T {
		db.dropped.Add(1)
		return ErrOutOfOrder
	}
	if n := len(s.data); n > 0 && t == s.data[n-1].T {
		s.data[n-1].V = v // overwrite duplicate timestamp, like VM
	} else {
		s.data = append(s.data, Sample{T: t, V: v})
	}
	// durable: log the accepted sample while still under s.mu, the
	// checkpoint's drain lock.
	if db.dur != nil && db.dur.Armed() {
		db.dur.Append(db.shardIndex(s.fp), appendSample(s.walPrefixFor(), t, v))
	}
	db.appends.Add(1)
	ts.samples.Add(1)
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

func (db *DB) getOrCreate(ts *tenantState, ls labels.Labels) (*series, error) {
	fp := tenant.Fingerprint(ts.id, ls)
	sh := db.shardFor(fp)
	sh.mu.RLock()
	for _, s := range sh.series[fp] {
		if s.tenant == ts.id && s.labels.Equal(ls) {
			sh.mu.RUnlock()
			return s, nil
		}
	}
	sh.mu.RUnlock()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, s := range sh.series[fp] {
		if s.tenant == ts.id && s.labels.Equal(ls) {
			return s, nil
		}
	}
	// Reserve-then-rollback: the atomic add keeps the tenant quota exact
	// under concurrent creators across shards.
	if n := ts.series.Add(1); ts.maxSeries > 0 && n > ts.maxSeries {
		ts.series.Add(-1)
		return nil, fmt.Errorf("%w (tenant %s)", ErrMaxSeries, ts.id)
	}
	s := &series{labels: ls.Copy(), fp: fp, tenant: ts.id}
	sh.series[fp] = append(sh.series[fp], s)
	sh.ordered = append(sh.ordered, s)
	db.seriesCount.Add(1)
	return s, nil
}

// candidates returns every series of one tenant matching all matchers,
// across shards, plus the number of shards that held at least one match.
func (db *DB) candidates(tid string, sel []*labels.Matcher) ([]*series, int) {
	var cand []*series
	touched := 0
	for _, sh := range db.shards {
		sh.mu.RLock()
		n := len(cand)
		for _, s := range sh.ordered {
			if s.tenant != tid {
				continue
			}
			if labels.MatchLabels(s.labels, sel) {
				cand = append(cand, s)
			}
		}
		sh.mu.RUnlock()
		if len(cand) > n {
			touched++
		}
	}
	return cand, touched
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
	cand, touched := db.candidates(tenant.ID(ctx), sel)
	sc.AddShardsTouched(int64(touched))
	sc.AddStreams(int64(len(cand)))
	results := make([][]Sample, len(cand))
	parallel.Do(len(cand), parallel.Workers(0), &db.queryInFlight, func(i int) {
		if ctx.Err() != nil {
			return
		}
		s := cand[i]
		s.mu.Lock()
		lo := sort.Search(len(s.data), func(j int) bool { return s.data[j].T >= mint })
		hi := sort.Search(len(s.data), func(j int) bool { return s.data[j].T > maxt })
		if lo < hi {
			samples := make([]Sample, hi-lo)
			copy(samples, s.data[lo:hi])
			results[i] = samples
		}
		s.mu.Unlock()
		if n := len(results[i]); n > 0 {
			var w stats.Worker
			w.LinesProcessed = int64(n)
			w.BytesProcessed = int64(n) * sampleCost
			w.FlushTo(sc)
		}
	})
	sc.AddSpan("tsdb.select", started, time.Now(),
		fmt.Sprintf("%d series over %d shards", len(cand), touched))
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	out := make([]SeriesData, 0, len(cand))
	for i, s := range cand {
		if len(results[i]) > 0 {
			out = append(out, SeriesData{Labels: s.labels, Samples: results[i]})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Labels.String() < out[j].Labels.String() })
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
	cand, _ := db.candidates(tenant.ID(ctx), sel)
	results := make([][]Sample, len(cand))
	parallel.Do(len(cand), parallel.Workers(0), &db.queryInFlight, func(i int) {
		s := cand[i]
		s.mu.Lock()
		hi := sort.Search(len(s.data), func(j int) bool { return s.data[j].T > ts })
		if hi > 0 && s.data[hi-1].T >= ts-lookbackMS {
			results[i] = []Sample{s.data[hi-1]}
		}
		s.mu.Unlock()
	})
	out := make([]SeriesData, 0, len(cand))
	for i, s := range cand {
		if len(results[i]) > 0 {
			out = append(out, SeriesData{Labels: s.labels, Samples: results[i]})
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
	var out []labels.Labels
	cand, _ := db.candidates(id, sel)
	for _, s := range cand {
		out = append(out, s.labels)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// LabelValues returns distinct values of a label across the default
// tenant's series.
func (db *DB) LabelValues(name string) []string {
	return db.LabelValuesTenant(tenant.DefaultID, name)
}

// LabelValuesTenant is LabelValues within one tenant's namespace.
func (db *DB) LabelValuesTenant(id, name string) []string {
	set := map[string]bool{}
	for _, sh := range db.shards {
		sh.mu.RLock()
		for _, s := range sh.ordered {
			if s.tenant != id {
				continue
			}
			if v := s.labels.Get(name); v != "" {
				set[v] = true
			}
		}
		sh.mu.RUnlock()
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// DeleteBefore drops samples older than ts (ms) and removes series that
// become empty. It returns the number of samples dropped.
func (db *DB) DeleteBefore(ts int64) int {
	dropped := 0
	for _, sh := range db.shards {
		sh.mu.Lock()
		kept := sh.ordered[:0]
		for _, s := range sh.ordered {
			s.mu.Lock()
			lo := sort.Search(len(s.data), func(i int) bool { return s.data[i].T >= ts })
			dropped += lo
			if lo > 0 {
				s.data = append([]Sample(nil), s.data[lo:]...)
			}
			empty := len(s.data) == 0
			s.mu.Unlock()
			if empty {
				list := sh.series[s.fp]
				for i, other := range list {
					if other == s {
						sh.series[s.fp] = append(list[:i], list[i+1:]...)
						break
					}
				}
				if len(sh.series[s.fp]) == 0 {
					delete(sh.series, s.fp)
				}
				db.seriesCount.Add(-1)
				db.tenantStateFor(s.tenant).series.Add(-1)
				continue
			}
			kept = append(kept, s)
		}
		sh.ordered = kept
		sh.mu.Unlock()
	}
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
	return Stats{
		Series:  int(db.seriesCount.Load()),
		Samples: db.appends.Load(),
		Dropped: db.dropped.Load(),
	}
}

// TenantStat is one tenant's slice of the head accounting.
type TenantStat struct {
	Tenant  string
	Series  int64
	Samples int64
}

// TenantStats snapshots per-tenant counters, sorted by tenant ID.
func (db *DB) TenantStats() []TenantStat {
	db.tmu.RLock()
	out := make([]TenantStat, 0, len(db.tenants))
	for _, ts := range db.tenants {
		out = append(out, TenantStat{Tenant: ts.id, Series: ts.series.Load(), Samples: ts.samples.Load()})
	}
	db.tmu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
