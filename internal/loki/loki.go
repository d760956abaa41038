// Package loki implements a Grafana-Loki-style log aggregation store: the
// primary substrate of the paper. Logs are (timestamp, labels, line)
// triples. Only the timestamp and the labels are indexed; line content is
// compressed into chunks (see chunkenc). Logs sharing one unique label
// combination form a stream, and each stream fills chunks of its own — the
// exact storage model §IV.A of the paper walks through.
//
// The store is internally sharded: streams are striped over N lock-striped
// shards by label fingerprint (N = GOMAXPROCS by default), mirroring the
// paper's 8-worker Loki cluster inside one process. Concurrent pushers to
// different streams proceed without contending on a store-wide mutex, and
// ingest statistics are plain atomics, so the hot path takes exactly one
// shard read-lock plus one stream lock per pushed stream.
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
	"shastamon/internal/stats"
	"shastamon/internal/tenant"
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
	RejectOldSamples       bool
	ChunkOptions           chunkenc.Options

	// Shards is the number of lock stripes streams are spread over by
	// fingerprint; 0 = GOMAXPROCS. More shards = less push contention.
	Shards int
	// ChunkCacheBytes bounds the sealed-block decompression cache by raw
	// (decoded) bytes: 0 = chunkenc.DefaultCacheBytes, negative disables
	// the cache entirely.
	ChunkCacheBytes int

	// MaxBytesScanned cancels any tracked query whose cumulative scanned
	// bytes exceed the budget (Loki's max_query_bytes_read); 0 = unlimited.
	// Enforced by the stats.Tracker the warehouse arms per query.
	MaxBytesScanned int64
	// QueryTimeout cancels any tracked query running longer than this;
	// 0 = no timeout.
	QueryTimeout time.Duration
	// SlowQuerySeconds is the /debug/slowlog threshold: tracked queries at
	// least this slow are recorded. 0 disables duration-based slowlogging.
	SlowQuerySeconds float64

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
	ErrReservedLabel = errors.New("loki: " + tenant.ReservedLabel + " is a reserved label")
)

// stream is the per-label-set state: an ordered list of filled chunks plus
// the currently open head chunk.
type stream struct {
	labels labels.Labels
	fp     labels.Fingerprint
	// tenant namespaces the stream: two tenants pushing identical label
	// sets get distinct streams (and, seeded, distinct fingerprints).
	tenant string

	mu     sync.Mutex
	chunks []*chunkenc.Chunk // sealed (full) chunks, oldest first
	head   *chunkenc.Chunk
	// lastTS tracks the newest accepted timestamp so out-of-order entries
	// are rejected across chunk cuts as well.
	lastTS int64
	// walPrefix caches the stream's encoded WAL record prefix (type byte
	// plus labels) so durable pushes don't re-encode labels per batch.
	walPrefix []byte
}

// shard is one lock stripe of the store: its own stream index, a push
// counter the shard-balance metric reads, and the shard's slice of the
// ingest accounting. The accounting counters live here rather than on
// the Store so concurrent pushers to different stripes never write the
// same cache lines — store-wide atomics were the one piece of state
// every pusher still shared. Stats() sums them on read.
type shard struct {
	mu      sync.RWMutex
	streams map[labels.Fingerprint][]*stream // collision list per fingerprint
	ordered []*stream                        // insertion order, for queries

	pushes        atomic.Int64
	entries       atomic.Int64
	rawBytes      atomic.Int64
	discardedOOO  atomic.Int64
	discardedSize atomic.Int64
}

// Store is an in-process Loki: ingester plus index plus chunk store.
// It is safe for concurrent use.
type Store struct {
	limits Limits

	obsOnce sync.Once
	obsReg  *obs.Registry

	shards []*shard
	cache  *chunkenc.BlockCache

	// streamCount is the store-wide stream total; MaxStreams is enforced
	// against it with a reserve-then-check atomic add, keeping the limit
	// exact no matter how many shards create streams concurrently.
	streamCount atomic.Int64

	// queryInFlight counts live Select/Flush workers for the
	// query-parallelism gauge.
	queryInFlight atomic.Int64

	// dur is the durability layer (WAL + spill + checkpoint); nil for a
	// memory-only store. See durable.go.
	dur *durability

	// Tenant namespaces. defTenant is the cached default-tenant state so
	// the single-tenant hot path never touches the map or its lock.
	defTenant *tenantState
	tmu       sync.RWMutex
	tenants   map[string]*tenantState

	// nowNS feeds the per-tenant rate limiters; swapped in tests.
	nowNS func() int64
}

// tenantState is the per-tenant slice of the store: exact stream
// accounting, ingest counters, and the optional rate limiter and private
// chunk cache the tenant's overrides configure.
type tenantState struct {
	id         string
	maxStreams int64

	streams     atomic.Int64
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
	s := &Store{limits: limits, shards: make([]*shard, n)}
	for i := range s.shards {
		s.shards[i] = &shard{streams: map[labels.Fingerprint][]*stream{}}
	}
	if limits.ChunkCacheBytes >= 0 {
		s.cache = chunkenc.NewBlockCache(limits.ChunkCacheBytes)
	}
	s.nowNS = func() int64 { return time.Now().UnixNano() }
	s.tenants = map[string]*tenantState{}
	s.defTenant = s.newTenantState(tenant.DefaultID)
	s.tenants[tenant.DefaultID] = s.defTenant
	return s
}

// newTenantState materializes a tenant's quotas from the overrides.
func (s *Store) newTenantState(id string) *tenantState {
	lim := s.limits.TenantOverrides.For(id)
	ts := &tenantState{id: id, maxStreams: int64(lim.MaxStreams)}
	if lim.IngestRateBytes > 0 {
		ts.limiter = tenant.NewRateLimiter(float64(lim.IngestRateBytes), float64(lim.IngestBurstBytes))
	}
	if lim.ChunkCacheShare > 0 && s.cache != nil {
		total := s.limits.ChunkCacheBytes
		if total == 0 {
			total = chunkenc.DefaultCacheBytes
		}
		if b := int(float64(total) * lim.ChunkCacheShare); b > 0 {
			ts.cache = chunkenc.NewBlockCache(b)
		}
	}
	return ts
}

// tenantStateFor returns (creating on first use) the tenant's state. The
// default tenant takes a direct field read — no lock, no map.
func (s *Store) tenantStateFor(id string) *tenantState {
	if id == "" || id == tenant.DefaultID {
		return s.defTenant
	}
	s.tmu.RLock()
	ts := s.tenants[id]
	s.tmu.RUnlock()
	if ts != nil {
		return ts
	}
	s.tmu.Lock()
	defer s.tmu.Unlock()
	if ts = s.tenants[id]; ts == nil {
		ts = s.newTenantState(id)
		s.tenants[id] = ts
	}
	return ts
}

// tenantStatePeek is the read-path lookup: it never creates state, so a
// query for an unknown tenant cannot grow the tenant map (or surface a
// zero row in TenantStats).
func (s *Store) tenantStatePeek(id string) *tenantState {
	if id == "" || id == tenant.DefaultID {
		return s.defTenant
	}
	s.tmu.RLock()
	ts := s.tenants[id]
	s.tmu.RUnlock()
	return ts
}

// cacheFor picks the tenant's private sealed-block cache when one is
// configured, else the shared store cache.
func (s *Store) cacheFor(ts *tenantState) *chunkenc.BlockCache {
	if ts != nil && ts.cache != nil {
		return ts.cache
	}
	return s.cache
}

// Shards returns the number of lock stripes the store runs.
func (s *Store) Shards() int { return len(s.shards) }

// ShardPushes returns, per shard, the number of stream pushes it served —
// the balance check for the fingerprint striping.
func (s *Store) ShardPushes() []int64 {
	out := make([]int64, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.pushes.Load()
	}
	return out
}

// CacheStats snapshots the sealed-block decompression cache counters; all
// zeros when the cache is disabled.
func (s *Store) CacheStats() chunkenc.CacheStats { return s.cache.Stats() }

// QueryParallelism reports the number of in-flight query workers.
func (s *Store) QueryParallelism() int64 { return s.queryInFlight.Load() }

func (s *Store) shardFor(fp labels.Fingerprint) *shard {
	return s.shards[uint64(fp)%uint64(len(s.shards))]
}

func (s *Store) shardIndex(fp labels.Fingerprint) int {
	return int(uint64(fp) % uint64(len(s.shards)))
}

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
	ts := s.tenantStateFor(id)
	if ts.limiter != nil {
		var n int64
		for _, ps := range batch {
			for _, e := range ps.Entries {
				n += int64(len(e.Line))
			}
		}
		if !ts.limiter.AllowNLazy(s.nowNS, float64(n)) {
			ts.rateLimited.Add(n)
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

func (s *Store) pushStream(ps PushStream) error {
	return s.pushStreamTenant(s.defTenant, ps)
}

func (s *Store) pushStreamTenant(ts *tenantState, ps PushStream) error {
	if len(ps.Labels) == 0 {
		return ErrEmptyLabels
	}
	if len(ps.Labels) > s.limits.MaxLabelNamesPerStream {
		return fmt.Errorf("%w: %d > %d (%s)", ErrTooManyLabels, len(ps.Labels), s.limits.MaxLabelNamesPerStream, ps.Labels)
	}
	if err := ps.Labels.Validate(); err != nil {
		return err
	}
	if ps.Labels.Has(tenant.ReservedLabel) {
		return ErrReservedLabel
	}
	st, sh, err := s.getOrCreateStream(ts, ps.Labels)
	if err != nil {
		return err
	}
	sh.pushes.Add(1)
	var firstErr error
	var accepted, bytes, dSize, dOOO int64
	// durable: log accepted entries to the shard WAL before the push
	// returns. The append happens under st.mu, which is the checkpoint's
	// drain lock — a snapshot can never land between an in-memory append
	// and its WAL record.
	durable := s.dur != nil && s.dur.Armed()
	var walEntries []Entry
	st.mu.Lock()
	for _, e := range ps.Entries {
		if len(e.Line) > s.limits.MaxLineSize {
			dSize++
			if firstErr == nil {
				firstErr = ErrLineTooLong
			}
			continue
		}
		if e.Timestamp < st.lastTS {
			dOOO++
			if firstErr == nil {
				firstErr = chunkenc.ErrOutOfOrder
			}
			continue
		}
		sealed, err := st.append(e, s.limits.ChunkOptions)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if sealed != nil {
			s.maybeSpillSealed(sealed)
		}
		st.lastTS = e.Timestamp
		accepted++
		bytes += int64(len(e.Line))
		if durable {
			walEntries = append(walEntries, e)
		}
	}
	if durable && len(walEntries) > 0 {
		s.dur.Append(s.shardIndex(st.fp), appendEntries(st.walPrefixFor(), walEntries))
	}
	st.mu.Unlock()
	sh.entries.Add(accepted)
	sh.rawBytes.Add(bytes)
	ts.entries.Add(accepted)
	ts.bytes.Add(bytes)
	if dSize > 0 {
		sh.discardedSize.Add(dSize)
	}
	if dOOO > 0 {
		sh.discardedOOO.Add(dOOO)
	}
	return firstErr
}

// append adds one entry to the stream's head chunk, cutting a new head
// when the old one fills. It returns the just-sealed chunk (nil normally)
// so the durable store can spill it to disk.
func (st *stream) append(e Entry, opt chunkenc.Options) (*chunkenc.Chunk, error) {
	if st.head == nil {
		st.head = chunkenc.New(opt)
	}
	err := st.head.Append(chunkenc.Entry{Timestamp: e.Timestamp, Line: e.Line})
	if err == chunkenc.ErrChunkFull {
		var sealed *chunkenc.Chunk
		_ = st.head.Close()
		st.chunks = append(st.chunks, st.head)
		sealed = st.head
		st.head = chunkenc.New(opt)
		err = st.head.Append(chunkenc.Entry{Timestamp: e.Timestamp, Line: e.Line})
		return sealed, err
	}
	return nil, err
}

func (s *Store) getOrCreateStream(ts *tenantState, ls labels.Labels) (*stream, *shard, error) {
	fp := tenant.Fingerprint(ts.id, ls)
	sh := s.shardFor(fp)
	sh.mu.RLock()
	for _, st := range sh.streams[fp] {
		if st.tenant == ts.id && st.labels.Equal(ls) {
			sh.mu.RUnlock()
			return st, sh, nil
		}
	}
	sh.mu.RUnlock()

	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, st := range sh.streams[fp] {
		if st.tenant == ts.id && st.labels.Equal(ls) {
			return st, sh, nil
		}
	}
	// Reserve a slot before creating: the adds are atomic across shards,
	// so concurrent creators can never overshoot the store-wide or the
	// per-tenant MaxStreams; a tripped tenant limit rolls the store-wide
	// reservation back.
	if n := s.streamCount.Add(1); s.limits.MaxStreams > 0 && n > int64(s.limits.MaxStreams) {
		s.streamCount.Add(-1)
		return nil, nil, ErrMaxStreams
	}
	if n := ts.streams.Add(1); ts.maxStreams > 0 && n > ts.maxStreams {
		ts.streams.Add(-1)
		s.streamCount.Add(-1)
		return nil, nil, fmt.Errorf("%w (tenant %s)", ErrMaxStreams, ts.id)
	}
	st := &stream{labels: ls.Copy(), fp: fp, tenant: ts.id, lastTS: -1 << 62}
	sh.streams[fp] = append(sh.streams[fp], st)
	sh.ordered = append(sh.ordered, st)
	return st, sh, nil
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
	var cand []*stream
	shardsTouched := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n := len(cand)
		for _, st := range sh.ordered {
			if st.tenant != tid {
				continue
			}
			if shardOf > 0 && uint64(st.fp)%uint64(shardOf) != uint64(shardIdx) {
				continue
			}
			if labels.MatchLabels(st.labels, sel) {
				cand = append(cand, st)
			}
		}
		sh.mu.RUnlock()
		if len(cand) > n {
			shardsTouched++
		}
	}
	sc.AddShardsTouched(int64(shardsTouched))
	sc.AddStreams(int64(len(cand)))

	qcache := s.cacheFor(s.tenantStatePeek(tid))
	results := make([][]Entry, len(cand))
	errs := make([]error, len(cand))
	parallel.Do(len(cand), parallel.Workers(0), &s.queryInFlight, func(i int) {
		results[i], errs[i] = cand[i].query(ctx, mint, maxt, qcache, sc)
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
			out = append(out, SelectedStream{Labels: st.labels, Entries: results[i]})
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

func (st *stream) query(ctx context.Context, mint, maxt int64, cache *chunkenc.BlockCache, sc *stats.Context) ([]Entry, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
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
	for _, c := range st.chunks {
		if err := collect(c); err != nil {
			return nil, err
		}
		w.FlushTo(sc)
		if err := ctx.Err(); err != nil {
			return nil, context.Cause(ctx)
		}
	}
	if st.head != nil {
		if err := collect(st.head); err != nil {
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
	var out []labels.Labels
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, st := range sh.ordered {
			if st.tenant != id {
				continue
			}
			if labels.MatchLabels(st.labels, sel) {
				out = append(out, st.labels)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// LabelValues returns the sorted distinct values of a label name across the
// default tenant's streams; used by dashboards for variable dropdowns.
func (s *Store) LabelValues(name string) []string {
	return s.LabelValuesTenant(tenant.DefaultID, name)
}

// LabelValuesTenant is LabelValues within one tenant's namespace.
func (s *Store) LabelValuesTenant(id, name string) []string {
	set := map[string]bool{}
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, st := range sh.ordered {
			if st.tenant != id {
				continue
			}
			if v := st.labels.Get(name); v != "" {
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
	st := Stats{Streams: int(s.streamCount.Load())}
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, str := range sh.ordered {
			str.mu.Lock()
			st.Chunks += len(str.chunks)
			if str.head != nil && str.head.Entries() > 0 {
				st.Chunks++
			}
			for _, c := range str.chunks {
				st.CompressedBytes += int64(c.CompressedBytes())
			}
			if str.head != nil {
				st.CompressedBytes += int64(str.head.CompressedBytes())
			}
			str.mu.Unlock()
		}
		sh.mu.RUnlock()
		st.Entries += sh.entries.Load()
		st.RawBytes += sh.rawBytes.Load()
		st.DiscardedOOO += sh.discardedOOO.Load()
		st.DiscardedTooLong += sh.discardedSize.Load()
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
	s.tmu.RLock()
	out := make([]TenantStat, 0, len(s.tenants))
	for _, ts := range s.tenants {
		out = append(out, TenantStat{
			Tenant:           ts.id,
			Streams:          ts.streams.Load(),
			Entries:          ts.entries.Load(),
			RawBytes:         ts.bytes.Load(),
			RateLimitedBytes: ts.rateLimited.Load(),
		})
	}
	s.tmu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// Flush seals the open head block of every stream so that Stats reports
// fully-compressed sizes; ingestion may continue afterwards. Sealing
// compresses, so streams are flushed on the worker pool.
func (s *Store) Flush() error {
	var streams []*stream
	for _, sh := range s.shards {
		sh.mu.RLock()
		streams = append(streams, sh.ordered...)
		sh.mu.RUnlock()
	}
	errs := make([]error, len(streams))
	parallel.Do(len(streams), parallel.Workers(0), &s.queryInFlight, func(i int) {
		st := streams[i]
		st.mu.Lock()
		if st.head != nil {
			errs[i] = st.head.Close()
		}
		st.mu.Unlock()
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
	for _, sh := range s.shards {
		sh.mu.Lock()
		keptStreams := sh.ordered[:0]
		for _, st := range sh.ordered {
			tcache := s.cacheFor(s.tenantStateFor(st.tenant))
			st.mu.Lock()
			kept := st.chunks[:0]
			for _, c := range st.chunks {
				if _, maxt, ok := c.Bounds(); ok && maxt < ts {
					dropped++
					tcache.DropChunk(c)
					// The spill file (if any) is left for the next
					// checkpoint's GC: an in-flight query that captured
					// the chunk before retention ran may still fault
					// payloads from it, so unlinking here would fail that
					// query with ENOENT.
					continue
				}
				kept = append(kept, c)
			}
			st.chunks = kept
			if st.head != nil {
				if _, maxt, ok := st.head.Bounds(); ok && maxt < ts {
					dropped++
					tcache.DropChunk(st.head)
					st.head = nil
				}
			}
			empty := len(st.chunks) == 0 && (st.head == nil || st.head.Entries() == 0)
			st.mu.Unlock()
			if empty {
				// remove from fingerprint map and release the stream slot
				list := sh.streams[st.fp]
				for i, other := range list {
					if other == st {
						sh.streams[st.fp] = append(list[:i], list[i+1:]...)
						break
					}
				}
				if len(sh.streams[st.fp]) == 0 {
					delete(sh.streams, st.fp)
				}
				s.streamCount.Add(-1)
				s.tenantStateFor(st.tenant).streams.Add(-1)
				continue
			}
			keptStreams = append(keptStreams, st)
		}
		sh.ordered = keptStreams
		sh.mu.Unlock()
	}
	return dropped
}
