// Package loki implements a Grafana-Loki-style log aggregation store: the
// primary substrate of the paper. Logs are (timestamp, labels, line)
// triples. Only the timestamp and the labels are indexed; line content is
// compressed into chunks (see chunkenc). Logs sharing one unique label
// combination form a stream, and each stream fills chunks of its own — the
// exact storage model §IV.A of the paper walks through.
//
// Streams live in a series.Index (striping, tenants, quotas, selection):
// see internal/series.
package loki

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"shastamon/internal/chunkenc"
	"shastamon/internal/labels"
	"shastamon/internal/obs"
	"shastamon/internal/parallel"
	"shastamon/internal/series"
	"shastamon/internal/stats"
	"shastamon/internal/tenant"
	"shastamon/internal/wal"
)

// Entry is a single log line.
type Entry struct {
	Timestamp int64 // Unix nanoseconds, as in Loki's push API
	Line      string
}

// PushStream is one stream in a push request: a label set plus entries, the
// shape of the JSON payload shown in Fig. 3 of the paper.
type PushStream struct {
	Labels  labels.Labels
	Entries []Entry
}

// Limits bound ingestion, mirroring Loki's per-tenant limits.
type Limits struct {
	MaxLabelNamesPerStream int // 0 = default 15
	MaxLineSize            int // bytes, 0 = default 256 KiB
	MaxStreams             int // 0 = unlimited; exact across shards
	ChunkOptions           chunkenc.Options

	// Shards is the number of lock stripes streams are spread over by
	// fingerprint; 0 = GOMAXPROCS. More shards = less push contention.
	Shards int
	// ChunkCacheBytes bounds the sealed-block decompression cache by raw
	// (decoded) bytes: 0 = chunkenc.DefaultCacheBytes, negative disables
	// the cache entirely.
	ChunkCacheBytes int

	// TenantOverrides resolve per-tenant quotas (stream caps, ingest
	// rate, chunk-cache share). nil = no per-tenant bounds; the store-wide
	// limits above still apply. A pointer keeps Limits comparable.
	TenantOverrides *tenant.Overrides
}

// DefaultLimits mirror Loki 2.4 defaults at simulator scale.
func DefaultLimits() Limits {
	return Limits{MaxLabelNamesPerStream: 15, MaxLineSize: 256 * 1024}
}

// ShardLabel is the virtual selector label the query frontend injects
// to restrict a sub-query to one fingerprint stripe: __shard__="i_of_n"
// selects streams whose fingerprint lands in stripe i of n. It is a
// query-time construct only — no stream ever carries it — and
// SelectContext strips it before matching real labels.
const ShardLabel = "__shard__"

// Validation errors returned by Push.
var (
	ErrTooManyLabels = errors.New("loki: stream exceeds max label names")
	ErrLineTooLong   = errors.New("loki: line exceeds max size")
	ErrMaxStreams    = errors.New("loki: per-store stream limit exceeded")
	ErrEmptyLabels   = errors.New("loki: stream must carry at least one label")
	// ErrRateLimited rejects a whole push batch when the tenant's ingest
	// token bucket is empty; HTTP maps it to 429.
	ErrRateLimited = errors.New("loki: tenant ingest rate limit exceeded")
	// ErrReservedLabel rejects pushes carrying the internal __tenant__
	// label the WAL uses to persist stream ownership.
	ErrReservedLabel = series.ErrReservedLabel
)

// stream is one label set of one tenant (two tenants pushing identical
// label sets get distinct streams and, seeded, distinct fingerprints).
type stream = series.Node[streamData, tenantData]

// streamData is a stream's content, guarded by the stream lock: an
// ordered list of filled chunks plus the currently open head chunk.
type streamData struct {
	chunks []*chunkenc.Chunk // sealed (full) chunks, oldest first
	head   *chunkenc.Chunk
	// lastTS tracks the newest accepted timestamp so out-of-order entries
	// are rejected across chunk cuts as well.
	lastTS int64
}

// stripeCounters is one lock stripe's slice of the ingest accounting plus
// the push counter the shard-balance metric reads. The counters live per
// stripe rather than on the Store so concurrent pushers to different
// stripes never write the same cache lines — store-wide atomics were the
// one piece of state every pusher still shared. Stats() sums them on
// read.
type stripeCounters struct {
	pushes        atomic.Int64
	entries       atomic.Int64
	rawBytes      atomic.Int64
	discardedOOO  atomic.Int64
	discardedSize atomic.Int64
	_             [24]byte // pad to a cache line
}

// Store is an in-process Loki: ingester plus index plus chunk store.
// It is safe for concurrent use.
type Store struct {
	limits Limits

	obsOnce sync.Once
	obsReg  *obs.Registry

	// idx indexes the streams (MaxStreams is its store-wide cap);
	// counters[i] accounts pushes into its stripe i.
	idx      *series.Index[streamData, tenantData]
	counters []stripeCounters
	cache    *chunkenc.BlockCache

	// queryInFlight counts live Select/Flush workers for the
	// query-parallelism gauge.
	queryInFlight atomic.Int64

	// dur is the durability layer (WAL + spill + checkpoint); nil for a
	// memory-only store. See durable.go.
	dur *durability

	// nowNS feeds the per-tenant rate limiters; swapped in tests.
	nowNS func() int64
}

// tenantState is one tenant's namespace in the index.
type tenantState = series.Tenant[tenantData]

// tenantData is the store's per-tenant slice beyond the index's stream
// accounting: ingest counters, and the optional rate limiter and private
// chunk cache the tenant's overrides configure.
type tenantData struct {
	entries     atomic.Int64
	bytes       atomic.Int64
	rateLimited atomic.Int64

	limiter *tenant.RateLimiter
	cache   *chunkenc.BlockCache
}

// NewStore returns an empty store with the given limits.
func NewStore(limits Limits) *Store {
	if limits.MaxLabelNamesPerStream == 0 {
		limits.MaxLabelNamesPerStream = 15
	}
	if limits.MaxLineSize == 0 {
		limits.MaxLineSize = 256 * 1024
	}
	n := parallel.Workers(limits.Shards)
	s := &Store{limits: limits, counters: make([]stripeCounters, n)}
	if limits.ChunkCacheBytes >= 0 {
		s.cache = chunkenc.NewBlockCache(limits.ChunkCacheBytes)
	}
	s.nowNS = func() int64 { return time.Now().UnixNano() }
	quota := func(id string) int64 { return int64(limits.TenantOverrides.For(id).MaxStreams) }
	s.idx = series.New(n, limits.MaxStreams, ErrMaxStreams, quota, streamData{lastTS: -1 << 62}, s.setupTenant)
	return s
}

// setupTenant materializes a tenant's rate limiter and private cache from
// the overrides.
func (s *Store) setupTenant(ts *tenantState) {
	lim := s.limits.TenantOverrides.For(ts.ID)
	if lim.IngestRateBytes > 0 {
		ts.Data.limiter = tenant.NewRateLimiter(float64(lim.IngestRateBytes), float64(lim.IngestBurstBytes))
	}
	if lim.ChunkCacheShare > 0 && s.cache != nil {
		total := s.limits.ChunkCacheBytes
		if total == 0 {
			total = chunkenc.DefaultCacheBytes
		}
		if b := int(float64(total) * lim.ChunkCacheShare); b > 0 {
			ts.Data.cache = chunkenc.NewBlockCache(b)
		}
	}
}

// cacheFor picks the tenant's private sealed-block cache when one is
// configured, else the shared store cache.
func (s *Store) cacheFor(ts *tenantState) *chunkenc.BlockCache {
	if ts != nil && ts.Data.cache != nil {
		return ts.Data.cache
	}
	return s.cache
}

// Shards returns the number of lock stripes the store runs.
func (s *Store) Shards() int { return s.idx.Stripes() }

// ShardPushes returns, per shard, the number of stream pushes it served —
// the balance check for the fingerprint striping.
func (s *Store) ShardPushes() []int64 {
	out := make([]int64, len(s.counters))
	for i := range s.counters {
		out[i] = s.counters[i].pushes.Load()
	}
	return out
}

// CacheStats snapshots the sealed-block decompression cache counters; all
// zeros when the cache is disabled.
func (s *Store) CacheStats() chunkenc.CacheStats { return s.cache.Stats() }

// QueryParallelism reports the number of in-flight query workers.
func (s *Store) QueryParallelism() int64 { return s.queryInFlight.Load() }

// Push ingests a batch of streams. Entries within each stream must be in
// non-decreasing timestamp order; out-of-order entries are dropped and
// counted, mirroring Loki's reject-and-continue behaviour. The first
// validation error is returned after the whole batch is processed.
func (s *Store) Push(batch []PushStream) error {
	return s.PushTenant(tenant.DefaultID, batch)
}

// PushContext is Push under the context's tenant (see tenant.WithID).
func (s *Store) PushContext(ctx context.Context, batch []PushStream) error {
	return s.PushTenant(tenant.ID(ctx), batch)
}

// PushTenant ingests a batch into one tenant's namespace. When the
// tenant has an ingest rate quota, the whole batch is admitted or
// rejected (ErrRateLimited) against its line bytes up front, mirroring
// Loki's per-tenant distributor check.
func (s *Store) PushTenant(id string, batch []PushStream) error {
	ts := s.idx.Tenant(id)
	if ts.Data.limiter != nil {
		var n int64
		for _, ps := range batch {
			for _, e := range ps.Entries {
				n += int64(len(e.Line))
			}
		}
		if !ts.Data.limiter.AllowNLazy(s.nowNS, float64(n)) {
			ts.Data.rateLimited.Add(n)
			return fmt.Errorf("%w (tenant %s)", ErrRateLimited, id)
		}
	}
	var firstErr error
	for _, ps := range batch {
		if err := s.pushStreamTenant(ts, ps); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (s *Store) pushStreamTenant(ts *tenantState, ps PushStream) error {
	if len(ps.Labels) == 0 {
		return ErrEmptyLabels
	}
	if len(ps.Labels) > s.limits.MaxLabelNamesPerStream {
		return fmt.Errorf("%w: %d > %d (%s)", ErrTooManyLabels, len(ps.Labels), s.limits.MaxLabelNamesPerStream, ps.Labels)
	}
	st, i, err := s.idx.GetOrCreate(ts, ps.Labels)
	if err != nil {
		return err
	}
	c := &s.counters[i]
	c.pushes.Add(1)
	var firstErr error
	var accepted, bytes, dSize, dOOO int64
	// durable: log accepted entries to the shard WAL before the push
	// returns. The append happens under the stream lock, which is the
	// checkpoint's drain lock — a snapshot can never land between an
	// in-memory append and its WAL record.
	durable := s.dur != nil && s.dur.Armed()
	var walEntries []Entry
	st.Lock()
	d := &st.Data
	for _, e := range ps.Entries {
		if len(e.Line) > s.limits.MaxLineSize {
			dSize++
			if firstErr == nil {
				firstErr = ErrLineTooLong
			}
			continue
		}
		if e.Timestamp < d.lastTS {
			dOOO++
			if firstErr == nil {
				firstErr = chunkenc.ErrOutOfOrder
			}
			continue
		}
		sealed, err := d.append(e, s.limits.ChunkOptions)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if sealed != nil {
			s.maybeSpillSealed(sealed)
		}
		d.lastTS = e.Timestamp
		accepted++
		bytes += int64(len(e.Line))
		if durable {
			walEntries = append(walEntries, e)
		}
	}
	if durable && len(walEntries) > 0 {
		s.dur.Append(i, appendEntries(st.WALHeader(wal.RecLogStream), walEntries))
	}
	st.Unlock()
	c.entries.Add(accepted)
	c.rawBytes.Add(bytes)
	ts.Data.entries.Add(accepted)
	ts.Data.bytes.Add(bytes)
	if dSize > 0 {
		c.discardedSize.Add(dSize)
	}
	if dOOO > 0 {
		c.discardedOOO.Add(dOOO)
	}
	return firstErr
}

// append adds one entry to the stream's head chunk, cutting a new head
// when the old one fills. It returns the just-sealed chunk (nil normally)
// so the durable store can spill it to disk.
func (st *streamData) append(e Entry, opt chunkenc.Options) (*chunkenc.Chunk, error) {
	if st.head == nil {
		st.head = chunkenc.New(opt)
	}
	err := st.head.Append(chunkenc.Entry{Timestamp: e.Timestamp, Line: e.Line})
	if err == chunkenc.ErrChunkFull {
		sealed := st.head
		_ = sealed.Close()
		st.chunks = append(st.chunks, sealed)
		st.head = chunkenc.New(opt)
		err = st.head.Append(chunkenc.Entry{Timestamp: e.Timestamp, Line: e.Line})
		return sealed, err
	}
	return nil, err
}

// SelectedStream is a query result stream: labels plus matching entries in
// timestamp order.
type SelectedStream struct {
	Labels  labels.Labels
	Entries []Entry
}

// Select returns, for every stream matching the selector, its entries in
// [mint, maxt] (inclusive). Streams with no matching entries are omitted.
// Results are ordered by stream label string for determinism. Candidate
// streams are queried in parallel on a bounded worker pool; sealed-block
// decompression goes through the store's block cache, so re-reading the
// same window (ruler and vmalert do, every tick) skips the inflate work.
func (s *Store) Select(sel []*labels.Matcher, mint, maxt int64) ([]SelectedStream, error) {
	return s.SelectContext(context.Background(), sel, mint, maxt)
}

// SelectContext is Select with cancellation and per-query statistics: a
// stats.Context carried by ctx (if any) accumulates bytes/lines scanned,
// chunk and cache work and shard fan-out. Each worker counts into a
// private stats.Worker shard and flushes it at chunk granularity, so the
// byte budget and a kill are both observed mid-scan without per-line
// atomic traffic. A cancelled ctx stops the scan and returns its cause.
func (s *Store) SelectContext(ctx context.Context, sel []*labels.Matcher, mint, maxt int64) ([]SelectedStream, error) {
	sc := stats.FromContext(ctx)
	started := time.Now()
	tid := tenant.ID(ctx)
	sel, shardIdx, shardOf, err := splitShardMatcher(sel)
	if err != nil {
		return nil, err
	}
	ts := s.idx.Peek(tid)
	var cand []*stream
	if shardOf == 0 {
		cand = s.idx.Select(ts, sel)
	} else {
		// The partition test goes before the matchers: a fan-out of n
		// sub-queries then matches each stream once, not n times.
		cand = s.idx.Scan(func(st *stream) bool {
			return uint64(st.FP)%shardOf == shardIdx && st.Tenant() == ts && labels.MatchLabels(st.Labels, sel)
		})
	}
	shardsTouched := s.idx.Touched(cand)
	sc.AddShardsTouched(int64(shardsTouched))
	sc.AddStreams(int64(len(cand)))

	qcache := s.cacheFor(ts)
	results := make([][]Entry, len(cand))
	errs := make([]error, len(cand))
	parallel.Do(len(cand), parallel.Workers(0), &s.queryInFlight, func(i int) {
		results[i], errs[i] = query(ctx, cand[i], mint, maxt, qcache, sc)
	})
	sc.AddSpan("loki.select", started, time.Now(),
		fmt.Sprintf("%d streams over %d shards", len(cand), shardsTouched))
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	out := make([]SelectedStream, 0, len(cand))
	for i, st := range cand {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if len(results[i]) > 0 {
			out = append(out, SelectedStream{Labels: st.Labels, Entries: results[i]})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Labels.String() < out[j].Labels.String() })
	return out, nil
}

// splitShardMatcher extracts a __shard__="i_of_n" matcher from sel,
// returning the remaining matchers and the (i, n) partition. Any n > 0
// partitions streams disjointly via fp mod n, so the partition need not
// match the store's own stripe count. Without a shard matcher it
// returns sel unchanged and n = 0.
func splitShardMatcher(sel []*labels.Matcher) ([]*labels.Matcher, uint64, uint64, error) {
	found := false
	var idx, of uint64
	for _, m := range sel {
		if m.Name != ShardLabel {
			continue
		}
		if m.Type != labels.MatchEqual {
			return nil, 0, 0, fmt.Errorf("loki: %s requires an equality matcher", ShardLabel)
		}
		if _, err := fmt.Sscanf(m.Value, "%d_of_%d", &idx, &of); err != nil || of == 0 || idx >= of {
			return nil, 0, 0, fmt.Errorf("loki: bad %s value %q (want \"i_of_n\")", ShardLabel, m.Value)
		}
		found = true
	}
	if !found {
		return sel, 0, 0, nil
	}
	rest := make([]*labels.Matcher, 0, len(sel)-1)
	for _, m := range sel {
		if m.Name != ShardLabel {
			rest = append(rest, m)
		}
	}
	return rest, idx, of, nil
}

// queryCheckEvery is how many entries a stream scan processes between
// cancellation checks: small enough that kills and byte budgets stop a
// scan mid-chunk, large enough to keep the check off the per-line path.
const queryCheckEvery = 1024

func query(ctx context.Context, st *stream, mint, maxt int64, cache *chunkenc.BlockCache, sc *stats.Context) ([]Entry, error) {
	st.Lock()
	defer st.Unlock()
	var w stats.Worker
	var out []Entry
	sinceCheck := 0
	collect := func(c *chunkenc.Chunk) error {
		cmin, cmax, ok := c.Bounds()
		if !ok || cmax < mint || cmin > maxt {
			return nil
		}
		w.ChunksOpened++
		var is chunkenc.IterStats
		it := c.StatsIterator(cache, mint, maxt, &is)
		for it.Next() {
			e := it.At()
			out = append(out, Entry{Timestamp: e.Timestamp, Line: e.Line})
			w.LinesProcessed++
			w.BytesProcessed += int64(len(e.Line))
			if sinceCheck++; sinceCheck >= queryCheckEvery {
				sinceCheck = 0
				w.BlocksDecompressed += is.BlocksDecompressed
				w.DecompressedBytes += is.DecompressedBytes
				w.CacheHits += is.CacheHits
				w.CacheMisses += is.CacheMisses
				is = chunkenc.IterStats{}
				w.FlushTo(sc)
				if err := ctx.Err(); err != nil {
					return context.Cause(ctx)
				}
			}
		}
		w.BlocksDecompressed += is.BlocksDecompressed
		w.DecompressedBytes += is.DecompressedBytes
		w.CacheHits += is.CacheHits
		w.CacheMisses += is.CacheMisses
		return it.Err()
	}
	for _, c := range st.Data.chunks {
		if err := collect(c); err != nil {
			return nil, err
		}
		w.FlushTo(sc)
		if err := ctx.Err(); err != nil {
			return nil, context.Cause(ctx)
		}
	}
	if st.Data.head != nil {
		if err := collect(st.Data.head); err != nil {
			return nil, err
		}
	}
	w.FlushTo(sc)
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	return out, nil
}

// Series returns the label sets of the default tenant's streams matching
// the selector.
func (s *Store) Series(sel []*labels.Matcher) []labels.Labels {
	return s.SeriesTenant(tenant.DefaultID, sel)
}

// SeriesTenant is Series within one tenant's namespace.
func (s *Store) SeriesTenant(id string, sel []*labels.Matcher) []labels.Labels {
	return s.idx.Series(id, sel)
}

// LabelValues returns the sorted distinct values of a label name across the
// default tenant's streams; used by dashboards for variable dropdowns.
func (s *Store) LabelValues(name string) []string {
	return s.LabelValuesTenant(tenant.DefaultID, name)
}

// LabelValuesTenant is LabelValues within one tenant's namespace.
func (s *Store) LabelValuesTenant(id, name string) []string {
	return s.idx.LabelValues(id, name)
}

// Stats is a snapshot of store counters.
type Stats struct {
	Streams          int
	Chunks           int
	Entries          int64
	RawBytes         int64
	CompressedBytes  int64
	DiscardedOOO     int64
	DiscardedTooLong int64
}

// Stats returns current counters. CompressedBytes counts sealed blocks and
// raw head data, so the compression ratio converges as chunks fill.
func (s *Store) Stats() Stats {
	st := Stats{Streams: int(s.idx.Live())}
	for _, str := range s.idx.All() {
		str.Lock()
		d := &str.Data
		st.Chunks += len(d.chunks)
		if d.head != nil && d.head.Entries() > 0 {
			st.Chunks++
		}
		for _, c := range d.chunks {
			st.CompressedBytes += int64(c.CompressedBytes())
		}
		if d.head != nil {
			st.CompressedBytes += int64(d.head.CompressedBytes())
		}
		str.Unlock()
	}
	for i := range s.counters {
		c := &s.counters[i]
		st.Entries += c.entries.Load()
		st.RawBytes += c.rawBytes.Load()
		st.DiscardedOOO += c.discardedOOO.Load()
		st.DiscardedTooLong += c.discardedSize.Load()
	}
	return st
}

// TenantStat is one tenant's slice of the ingest accounting.
type TenantStat struct {
	Tenant           string
	Streams          int64
	Entries          int64
	RawBytes         int64
	RateLimitedBytes int64
}

// TenantStats snapshots per-tenant counters, sorted by tenant ID.
func (s *Store) TenantStats() []TenantStat {
	var out []TenantStat
	for _, ts := range s.idx.Tenants() {
		out = append(out, TenantStat{
			Tenant:           ts.ID,
			Streams:          ts.Live(),
			Entries:          ts.Data.entries.Load(),
			RawBytes:         ts.Data.bytes.Load(),
			RateLimitedBytes: ts.Data.rateLimited.Load(),
		})
	}
	return out
}

// Flush seals the open head block of every stream so that Stats reports
// fully-compressed sizes; ingestion may continue afterwards. Sealing
// compresses, so streams are flushed on the worker pool.
func (s *Store) Flush() error {
	streams := s.idx.All()
	errs := make([]error, len(streams))
	parallel.Do(len(streams), parallel.Workers(0), &s.queryInFlight, func(i int) {
		st := streams[i]
		st.Lock()
		if st.Data.head != nil {
			errs[i] = st.Data.head.Close()
		}
		st.Unlock()
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// DeleteBefore drops sealed chunks whose max timestamp is older than ts and
// removes streams that become empty. It implements retention: the paper's
// OMNI keeps "up to two years of operational data immediately available".
// It returns the number of chunks dropped.
func (s *Store) DeleteBefore(ts int64) int {
	dropped := 0
	s.idx.Sweep(func(st *stream) bool {
		tcache := s.cacheFor(st.Tenant())
		d := &st.Data
		kept := d.chunks[:0]
		for _, c := range d.chunks {
			if _, maxt, ok := c.Bounds(); ok && maxt < ts {
				dropped++
				tcache.DropChunk(c)
				// The spill file (if any) is left for the next
				// checkpoint's GC: an in-flight query that captured the
				// chunk before retention ran may still fault payloads
				// from it, so unlinking here would fail that query with
				// ENOENT.
				continue
			}
			kept = append(kept, c)
		}
		d.chunks = kept
		if d.head != nil {
			if _, maxt, ok := d.head.Bounds(); ok && maxt < ts {
				dropped++
				tcache.DropChunk(d.head)
				d.head = nil
			}
		}
		return len(d.chunks) == 0 && (d.head == nil || d.head.Entries() == 0)
	})
	return dropped
}
