// Package frontend implements a Loki-style query frontend for range
// queries: the layer between the HTTP query handlers and the engines
// that real Loki and VictoriaMetrics clusters use to scale reads.
//
// Three mechanisms, composed per request:
//
//   - Time splitting. A range query is cut at split-interval boundaries
//     into step-aligned sub-ranges which evaluate concurrently on a
//     bounded worker pool and merge deterministically — the read-path
//     counterpart of ingest lock striping.
//   - Shard fan-out. When the caller proves the expression merges across
//     disjoint stream partitions (sum of counts, max of maxes), each
//     split additionally fans out over the store's fingerprint shards
//     via a __shard__ selector and the partials merge pointwise.
//   - Results caching. Completed splits land in a byte-budgeted LRU
//     keyed by (engine, query, step, split window), so a dashboard
//     refresh that slides the window forward recomputes only the new
//     tail. Splits overlapping the mutable head window (now minus the
//     freshness bound) are never cached, and retention invalidates
//     entries whose data window it deletes from under them.
//
// The frontend is engine-neutral: requests carry timestamps in the
// engine's native unit (nanoseconds for LogQL, milliseconds for PromQL)
// plus an Eval closure that evaluates one sub-range monolithically.
// Matrix is the one range-result type: both engines alias it, so results
// cross the frontend without conversion.
//
// Admission is load-shed, not buffered without bound: each engine gets
// a bounded queue in front of a concurrency limit, and a query arriving
// to a full queue fails fast with stats.ErrQueueFull — the 429 path —
// instead of stacking unbounded latency.
package frontend

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"shastamon/internal/labels"
	"shastamon/internal/obs"
	"shastamon/internal/parallel"
	"shastamon/internal/promtext"
	"shastamon/internal/stats"
	"shastamon/internal/tenant"
)

// Defaults for the zero Config.
const (
	// DefaultSplitInterval is the split width. Engines evaluate range
	// queries per step, so narrower splits add no redundant scan work;
	// 5m keeps a one-hour dashboard panel at 12 independently cached
	// sub-ranges.
	DefaultSplitInterval = 5 * time.Minute
	// DefaultCacheBytes bounds the results cache: split results are
	// aggregated matrices, far smaller than the chunks they summarise.
	DefaultCacheBytes = 32 << 20
	// DefaultCacheFreshness is the mutable-head exclusion window: splits
	// ending within this distance of now are recomputed every time, the
	// analogue of Loki's max_cache_freshness.
	DefaultCacheFreshness = time.Minute
	// DefaultMaxQueueDepth bounds how many queries may wait per engine
	// before the frontend starts shedding.
	DefaultMaxQueueDepth = 64
)

// Config sizes the frontend.
type Config struct {
	// SplitInterval is the width of one time split; 0 takes
	// DefaultSplitInterval, negative disables splitting (whole range is
	// one split, still cached as one).
	SplitInterval time.Duration
	// CacheBytes bounds the results cache by approximate result size;
	// 0 takes DefaultCacheBytes, negative disables caching.
	CacheBytes int
	// CacheFreshness is how close to now a split may end and still be
	// cached; 0 takes DefaultCacheFreshness.
	CacheFreshness time.Duration
	// MaxConcurrent bounds concurrently executing range queries per
	// engine; 0 takes max(4, 2×GOMAXPROCS).
	MaxConcurrent int
	// MaxQueueDepth bounds queries waiting for an execution slot per
	// engine; 0 takes DefaultMaxQueueDepth, negative allows none (full
	// concurrency or immediate rejection).
	MaxQueueDepth int
	// NoShardFanout disables the per-shard fan-out even for expressions
	// whose callers prove shard-mergeable.
	NoShardFanout bool
	// Now supplies the frontend clock for the freshness cutoff; nil =
	// time.Now. The pipeline injects its simulated clock.
	Now func() time.Time
	// TenantOverrides supplies per-tenant query-concurrency limits; nil
	// leaves every tenant at MaxConcurrent. A tenant's
	// MaxQueryConcurrency, when positive, sizes that tenant's slot pool
	// (still queued behind MaxQueueDepth), so one flooding tenant cannot
	// occupy every execution slot.
	TenantOverrides *tenant.Overrides
}

// Sample is one labelled value of an instant query result; T is in
// engine-native time units.
type Sample struct {
	Labels labels.Labels
	T      int64
	V      float64
}

// Vector is an instant query result, the type both engines return and
// the rule evaluator consumes.
type Vector []Sample

// Point is one (timestamp, value) sample in engine-native time units.
type Point struct {
	T int64
	V float64
}

// Series is a labelled point sequence.
type Series struct {
	Labels labels.Labels
	Points []Point
}

// Matrix is a range query result, the type both engines return. A matrix
// returned by QueryRange never aliases the results cache: mergeSplits
// copies every point into freshly allocated slices, so callers may
// modify what they get.
type Matrix []Series

// Request is one range query. Start/End/Step and Lookback are in the
// engine's native unit; Unit says how long one of those ticks is, so the
// frontend can place the range on the wall clock for freshness and
// retention decisions.
type Request struct {
	// Engine namespaces the cache and selects the admission queue
	// ("logql", "promql").
	Engine string
	// Query is the canonical rendering of the parsed expression — the
	// cache key, so two spellings of one query share entries only if
	// they render identically.
	Query string

	Start, End, Step int64
	// Unit is the duration of one timestamp tick: time.Nanosecond for
	// LogQL, time.Millisecond for PromQL. Zero means nanoseconds.
	Unit time.Duration
	// Lookback is how far before a split's first step the evaluation
	// reads data (the range-aggregation interval or staleness window),
	// in engine units. Retention invalidation uses it to tell which
	// cached splits a deletion horizon reaches.
	Lookback int64

	// Shards > 1 declares the expression shard-mergeable: each split
	// may evaluate once per store shard (Eval's shard argument runs
	// 0..Shards-1) and the partial vectors merge pointwise with MergeOp
	// ("sum", "min" or "max"). Shards <= 1 evaluates unsharded
	// (shard = -1).
	Shards  int
	MergeOp string

	// Eval evaluates the expression monolithically over [start, end] at
	// the request step. shard is -1 for an unsharded evaluation, else
	// the shard index to restrict to.
	Eval func(ctx context.Context, start, end int64, shard int) (Matrix, error)
}

type bypassKey struct{}

// WithoutCache marks ctx so frontend queries under it skip the results
// cache entirely — logcli's -no-cache and the HTTP nocache parameter.
func WithoutCache(ctx context.Context) context.Context {
	return context.WithValue(ctx, bypassKey{}, true)
}

func cacheBypassed(ctx context.Context) bool {
	v, _ := ctx.Value(bypassKey{}).(bool)
	return v
}

// queue is one (engine, tenant)'s admission gate: a slot semaphore
// bounded by the tenant's concurrency limit (MaxConcurrent by default)
// with a counted wait line bounded by MaxQueueDepth.
type queue struct {
	slots    chan struct{}
	depth    int
	waiting  atomic.Int64
	rejected atomic.Int64
}

// queueKey namespaces admission queues by engine and tenant, so a
// tenant saturating its own slots never blocks another tenant's
// admission.
type queueKey struct {
	engine string
	tenant string
}

// Frontend splits, fans out, caches and admission-controls range
// queries. Build with New; safe for concurrent use.
type Frontend struct {
	cfg   Config
	cache *resultCache

	mu     sync.Mutex
	queues map[queueKey]*queue

	// metric counters; registered families read them via closures so an
	// unregistered frontend (unit tests) costs only the atomic adds.
	splitsTotal     atomic.Int64
	shardSubqueries atomic.Int64
	rejectedTotal   atomic.Int64
	queueWaitNS     atomic.Int64
}

// New builds a frontend from cfg, applying defaults.
func New(cfg Config) *Frontend {
	if cfg.SplitInterval == 0 {
		cfg.SplitInterval = DefaultSplitInterval
	}
	if cfg.CacheFreshness <= 0 {
		cfg.CacheFreshness = DefaultCacheFreshness
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
		if cfg.MaxConcurrent < 4 {
			cfg.MaxConcurrent = 4
		}
	}
	if cfg.MaxQueueDepth == 0 {
		cfg.MaxQueueDepth = DefaultMaxQueueDepth
	} else if cfg.MaxQueueDepth < 0 {
		cfg.MaxQueueDepth = 0
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	f := &Frontend{cfg: cfg, queues: map[queueKey]*queue{}}
	if cfg.CacheBytes >= 0 {
		size := cfg.CacheBytes
		if size == 0 {
			size = DefaultCacheBytes
		}
		f.cache = newResultCache(size)
	}
	return f
}

// Config returns the effective (default-applied) configuration.
func (f *Frontend) Config() Config { return f.cfg }

// ShardFanout reports whether shard fan-out is enabled.
func (f *Frontend) ShardFanout() bool { return !f.cfg.NoShardFanout }

// CacheStats snapshots the results cache counters; zeros when caching is
// disabled.
func (f *Frontend) CacheStats() CacheStats { return f.cache.Stats() }

// QueueDepth reports queries currently waiting for an execution slot
// across all engines.
func (f *Frontend) QueueDepth() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var n int64
	for _, q := range f.queues {
		n += q.waiting.Load()
	}
	return n
}

// Rejected reports queries shed because an admission queue was full.
func (f *Frontend) Rejected() int64 { return f.rejectedTotal.Load() }

// RejectedByTenant reports queries shed per tenant, summed across
// engines, sorted by tenant ID.
func (f *Frontend) RejectedByTenant() []TenantRejected {
	f.mu.Lock()
	byTenant := map[string]int64{}
	for key, q := range f.queues {
		byTenant[key.tenant] += q.rejected.Load()
	}
	f.mu.Unlock()
	out := make([]TenantRejected, 0, len(byTenant))
	for id, n := range byTenant {
		if n == 0 {
			continue // counter series appear on first increment, like Loki's
		}
		out = append(out, TenantRejected{Tenant: id, Rejected: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// TenantRejected is one tenant's shed-query count.
type TenantRejected struct {
	Tenant   string
	Rejected int64
}

// Register exposes the frontend metric families on reg.
func (f *Frontend) Register(reg *obs.Registry) {
	reg.GaugeFunc(obs.Namespace+"query_frontend_queue_depth",
		"Range queries waiting for a frontend execution slot.",
		func() float64 { return float64(f.QueueDepth()) })
	reg.Collect(func() []promtext.Family {
		cs := f.CacheStats()
		tenantRejected := promtext.Family{Name: obs.Namespace + "query_frontend_tenant_rejected_total",
			Help: "Range queries shed by the admission queue, by tenant.", Type: "counter"}
		for _, t := range f.RejectedByTenant() {
			tenantRejected = obs.Sample(tenantRejected, float64(t.Rejected), "tenant", t.Tenant)
		}
		return []promtext.Family{
			obs.Fam("counter", obs.Namespace+"query_frontend_splits_total",
				"Range-query time splits produced by the frontend.", float64(f.splitsTotal.Load())),
			obs.Fam("counter", obs.Namespace+"query_frontend_shard_subqueries_total",
				"Per-shard subqueries fanned out by the frontend.", float64(f.shardSubqueries.Load())),
			obs.Fam("counter", obs.Namespace+"query_frontend_queue_rejected_total",
				"Range queries shed because the admission queue was full.", float64(f.rejectedTotal.Load())),
			obs.Fam("counter", obs.Namespace+"query_frontend_queue_wait_seconds_total",
				"Cumulative time range queries spent waiting for admission.",
				time.Duration(f.queueWaitNS.Load()).Seconds()),
			obs.Fam("counter", obs.Namespace+"query_result_cache_hits_total",
				"Results-cache split hits.", float64(cs.Hits)),
			obs.Fam("counter", obs.Namespace+"query_result_cache_misses_total",
				"Results-cache split misses.", float64(cs.Misses)),
			obs.Fam("counter", obs.Namespace+"query_result_cache_evictions_total",
				"Results-cache entries evicted by the byte budget.", float64(cs.Evictions)),
			obs.Fam("gauge", obs.Namespace+"query_result_cache_bytes",
				"Approximate bytes of cached split results.", float64(cs.Bytes)),
			obs.Fam("gauge", obs.Namespace+"query_result_cache_entries",
				"Cached split results resident.", float64(cs.Entries)),
			tenantRejected,
		}
	})
}

func (f *Frontend) queueFor(engine, tid string) *queue {
	f.mu.Lock()
	defer f.mu.Unlock()
	key := queueKey{engine: engine, tenant: tid}
	q, ok := f.queues[key]
	if !ok {
		slots := f.cfg.MaxConcurrent
		if lim := f.cfg.TenantOverrides.For(tid).MaxQueryConcurrency; lim > 0 {
			slots = lim
		}
		q = &queue{slots: make(chan struct{}, slots), depth: f.cfg.MaxQueueDepth}
		f.queues[key] = q
	}
	return q
}

// admit takes an execution slot for (engine, tenant), waiting in its
// bounded queue if all slots are busy. A full queue rejects immediately
// with stats.ErrQueueFull. The returned release must be called when the
// query finishes.
func (f *Frontend) admit(ctx context.Context, engine, tid string) (func(), error) {
	q := f.queueFor(engine, tid)
	release := func() { <-q.slots }
	select {
	case q.slots <- struct{}{}:
		return release, nil
	default:
	}
	// All slots busy: join the wait line unless it is full. The
	// check-then-join is approximate under contention — a racing waiter
	// can briefly overshoot by the number of CPUs — but the bound holds
	// where it matters: a saturated queue never grows without limit.
	if q.waiting.Add(1) > int64(q.depth) {
		q.waiting.Add(-1)
		q.rejected.Add(1)
		f.rejectedTotal.Add(1)
		return nil, fmt.Errorf("frontend: %s %w", engine, stats.ErrQueueFull)
	}
	defer q.waiting.Add(-1)
	select {
	case q.slots <- struct{}{}:
		return release, nil
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
}

// span is one time split: the first and last step timestamps it covers,
// inclusive, in engine units.
type span struct {
	start, end int64
}

// floorDiv is integer division rounding toward negative infinity, so
// bucket assignment stays stable for pre-epoch test timestamps.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// splitSpans cuts the step grid start, start+step, ... (≤ end) at
// absolute split-interval boundaries. Buckets are positioned on the
// absolute timeline — not relative to start — so a refresh that slides
// an aligned window forward lands on the same buckets and re-hits the
// cache (the extension-of-range reuse).
func splitSpans(start, end, step, interval int64) []span {
	if end < start {
		return nil
	}
	gridEnd := start + (end-start)/step*step
	if interval <= 0 {
		return []span{{start, gridEnd}}
	}
	var out []span
	cur := start
	for cur <= gridEnd {
		bucketLast := (floorDiv(cur, interval)+1)*interval - 1
		hi := bucketLast
		if hi > gridEnd {
			hi = gridEnd
		}
		last := cur + (hi-cur)/step*step
		out = append(out, span{cur, last})
		cur = last + step
	}
	return out
}

// unit returns the request's tick duration, defaulting to nanoseconds.
func (r *Request) unit() time.Duration {
	if r.Unit <= 0 {
		return time.Nanosecond
	}
	return r.Unit
}

// QueryRange runs one range query through admission, splitting, the
// results cache and (when requested) shard fan-out. The returned matrix
// is sorted by label string, byte-identical to a monolithic evaluation
// of the same request, and owned by the caller (see Matrix).
func (f *Frontend) QueryRange(ctx context.Context, req Request) (Matrix, error) {
	if req.Step <= 0 {
		return nil, fmt.Errorf("frontend: step must be positive")
	}
	if req.Eval == nil {
		return nil, fmt.Errorf("frontend: request carries no evaluator")
	}
	sc := stats.FromContext(ctx)
	tid := tenant.ID(ctx)
	t0 := time.Now()
	release, err := f.admit(ctx, req.Engine, tid)
	if err != nil {
		return nil, err
	}
	defer release()
	wait := time.Since(t0)
	f.queueWaitNS.Add(int64(wait))
	sc.SetQueueTime(wait)
	sc.MarkExec()

	unit := req.unit()
	spans := splitSpans(req.Start, req.End, req.Step, int64(f.cfg.SplitInterval/unit))
	if len(spans) == 0 {
		return Matrix{}, nil
	}
	f.splitsTotal.Add(int64(len(spans)))
	for range spans {
		sc.AddSplit()
	}

	useCache := f.cache != nil && !cacheBypassed(ctx)
	// cutoff is the newest engine-units timestamp a split may end at and
	// still be cached: anything younger is the mutable head window.
	cutoff := f.cfg.Now().Add(-f.cfg.CacheFreshness).UnixNano() / int64(unit)

	splitStart := time.Now()
	results := make([]Matrix, len(spans))
	var toEval []int
	hits := 0
	for i, sp := range spans {
		if useCache && sp.end <= cutoff {
			if m, bytes, ok := f.cache.get(tid, req.Engine, req.Query, req.Step, sp); ok {
				results[i] = m
				sc.AddResultCacheHit(int64(bytes))
				hits++
				continue
			}
			sc.AddResultCacheMiss()
		}
		toEval = append(toEval, i)
	}

	errs := make([]error, len(toEval))
	parallel.Do(len(toEval), parallel.Workers(0), nil, func(j int) {
		i := toEval[j]
		sp := spans[i]
		m, err := f.evalSplit(ctx, &req, sp)
		if err != nil {
			errs[j] = err
			return
		}
		results[i] = m
		if useCache && sp.end <= cutoff {
			f.cache.put(tid, req.Engine, req.Query, req.Step, sp, unit, req.Lookback, m)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	merged := mergeSplits(results)
	sc.AddSpan("frontend.split", splitStart, time.Now(),
		fmt.Sprintf("%d splits (%d cached), %d shards", len(spans), hits, req.Shards))
	return merged, nil
}

// evalSplit evaluates one time split, fanning out across store shards
// when the request declares the expression shard-mergeable.
func (f *Frontend) evalSplit(ctx context.Context, req *Request, sp span) (Matrix, error) {
	if req.Shards > 1 && req.MergeOp != "" && !f.cfg.NoShardFanout {
		parts := make([]Matrix, req.Shards)
		errs := make([]error, req.Shards)
		f.shardSubqueries.Add(int64(req.Shards))
		parallel.Do(req.Shards, parallel.Workers(0), nil, func(s int) {
			parts[s], errs[s] = req.Eval(ctx, sp.start, sp.end, s)
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return mergeShards(req.MergeOp, parts)
	}
	return req.Eval(ctx, sp.start, sp.end, -1)
}

// mergeSplits concatenates per-split matrices in time order. Splits
// partition the step grid, so per-series points concatenate without
// overlap; series order is by label string, matching the engines'
// monolithic evaluation. Point slices are always freshly allocated:
// cached input matrices are shared between queries, and this copy is
// the one guarantee that a returned matrix never aliases them.
func mergeSplits(parts []Matrix) Matrix {
	bySeries := map[string]*Series{}
	var order []string
	total := 0
	for _, m := range parts {
		total += len(m)
	}
	for _, m := range parts {
		for _, s := range m {
			key := s.Labels.String()
			sr, ok := bySeries[key]
			if !ok {
				sr = &Series{Labels: s.Labels}
				bySeries[key] = sr
				order = append(order, key)
			}
			sr.Points = append(sr.Points, s.Points...)
		}
	}
	sort.Strings(order)
	out := make(Matrix, 0, len(order))
	for _, key := range order {
		out = append(out, *bySeries[key])
	}
	return out
}

// mergeShards merges per-shard partial matrices pointwise. Shards
// partition streams, so a series may appear in any subset of shards; a
// merged point exists wherever at least one shard produced one. The
// supported ops (sum of integral counts, min, max) merge exactly, which
// is what keeps sharded results byte-identical to monolithic ones.
func mergeShards(op string, parts []Matrix) (Matrix, error) {
	type seriesAcc struct {
		labels labels.Labels
		byT    map[int64]float64
		order  []int64
	}
	accs := map[string]*seriesAcc{}
	var order []string
	for _, m := range parts {
		for _, s := range m {
			key := s.Labels.String()
			acc, ok := accs[key]
			if !ok {
				acc = &seriesAcc{labels: s.Labels, byT: map[int64]float64{}}
				accs[key] = acc
				order = append(order, key)
			}
			for _, p := range s.Points {
				v, seen := acc.byT[p.T]
				if !seen {
					acc.byT[p.T] = p.V
					acc.order = append(acc.order, p.T)
					continue
				}
				switch op {
				case "sum":
					acc.byT[p.T] = v + p.V
				case "min":
					if p.V < v {
						acc.byT[p.T] = p.V
					}
				case "max":
					if p.V > v {
						acc.byT[p.T] = p.V
					}
				default:
					return nil, fmt.Errorf("frontend: unsupported shard merge op %q", op)
				}
			}
		}
	}
	sort.Strings(order)
	out := make(Matrix, 0, len(order))
	for _, key := range order {
		acc := accs[key]
		sort.Slice(acc.order, func(i, j int) bool { return acc.order[i] < acc.order[j] })
		pts := make([]Point, 0, len(acc.order))
		for _, t := range acc.order {
			pts = append(pts, Point{T: t, V: acc.byT[t]})
		}
		out = append(out, Series{Labels: acc.labels, Points: pts})
	}
	return out, nil
}

// InvalidateBefore drops cached splits whose data window (split start
// minus lookback) reaches before ts — the retention hook. It also raises
// the cache's admission high-water mark so a split evaluated against
// pre-retention data but stored after this call cannot resurface deleted
// data.
func (f *Frontend) InvalidateBefore(ts time.Time) int {
	return f.cache.invalidateBefore(ts.UnixNano())
}
