// Package stats implements per-query resource accounting for the read
// path, in the mould of Grafana Loki's stats.Context: a query-scoped
// accumulator carried through context.Context from the HTTP handler down
// to the chunk iterators, counting bytes and lines scanned, chunks
// opened, blocks decompressed, cache hits and misses, shards touched and
// range splits. The paper's operators debug dashboards backed by exactly
// these queries; without the counts a slow panel is a black box.
//
// Hot-path discipline mirrors the ingest side: workers accumulate into
// plain-int64 Worker shards and flush to the shared Context with atomic
// adds on join (and periodically mid-scan, so byte limits and kills are
// observed promptly). A nil *Context is safe everywhere, so instrumented
// code never branches on "is someone watching".
package stats

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Sentinel causes attached to the query context when a limit fires. The
// store returns context.Cause(ctx), so callers can errors.Is against
// these to tell a byte-budget breach from an operator kill.
var (
	// ErrMaxBytesScanned is the cancellation cause when a query's
	// cumulative scanned bytes exceed its MaxBytesScanned budget.
	ErrMaxBytesScanned = errors.New("query cancelled: max bytes scanned exceeded")
	// ErrQueryTimeout is the cancellation cause when a query outlives its
	// wall-clock budget.
	ErrQueryTimeout = errors.New("query cancelled: timeout exceeded")
	// ErrKilled is the cancellation cause for an operator kill via
	// POST /debug/queries/{id}/kill.
	ErrKilled = errors.New("query cancelled: killed via /debug/queries")
	// ErrQueueFull is returned (not a cancellation cause — the query
	// never starts) when the query frontend sheds a range query because
	// its bounded admission queue is full; HTTP handlers map it to 429.
	ErrQueueFull = errors.New("query rejected: frontend queue full")
)

// HTTPStatus is the one mapping from a query error to an HTTP status,
// shared by every query endpoint: a shed query is backpressure (429), a
// query that outlived its wall-clock budget is an upstream timeout
// (504), and any other engine-side failure — the byte budget, an
// operator kill, a store error — is a 500: the request was well-formed
// and the server did not answer it. Handlers reject parse and parameter
// errors with 400 before they query, so those never reach here.
func HTTPStatus(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrQueryTimeout):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// Context accumulates one query's running statistics. All counters are
// atomics: engine workers flush local Worker shards into it concurrently
// while /debug/queries snapshots it live. The zero value is unusable;
// build one with NewContext. All methods are nil-receiver safe.
type Context struct {
	start     time.Time
	execStart atomic.Int64 // UnixNano of first engine touch; 0 = never
	endNS     atomic.Int64 // UnixNano at Finish; 0 = still running

	bytesProcessed     atomic.Int64
	linesProcessed     atomic.Int64
	entriesReturned    atomic.Int64
	streamsSelected    atomic.Int64
	chunksOpened       atomic.Int64
	blocksDecompressed atomic.Int64
	decompressedBytes  atomic.Int64
	cacheHits          atomic.Int64
	cacheMisses        atomic.Int64
	shardsTouched      atomic.Int64
	splits             atomic.Int64

	resultCacheHits     atomic.Int64
	resultCacheMisses   atomic.Int64
	resultCacheHitBytes atomic.Int64

	queueNS atomic.Int64 // set by the frontend (time spent queued before execution)

	maxBytes int64 // scan budget; 0 = unlimited
	breached atomic.Bool
	cancel   context.CancelCauseFunc

	mu    sync.Mutex
	spans []Span
}

// Span is one timed region of query execution, recorded by the layers the
// query passes through and replayed onto the obs tracer by the tracker so
// /debug/trace/{id}?format=waterfall shows query internals.
type Span struct {
	Stage      string
	Start, End time.Time
	Note       string
}

type ctxKey struct{}

// NewContext returns a child of parent carrying a fresh *Context. The
// instrumented read path picks it up with FromContext.
func NewContext(parent context.Context) (context.Context, *Context) {
	c := &Context{start: time.Now()}
	return context.WithValue(parent, ctxKey{}, c), c
}

// FromContext returns the *Context carried by ctx, or nil when the query
// is not being tracked (internal callers like the ruler). Nil is safe to
// use with every method.
func FromContext(ctx context.Context) *Context {
	if ctx == nil {
		return nil
	}
	c, _ := ctx.Value(ctxKey{}).(*Context)
	return c
}

// ArmLimit installs the per-query scan budget and the cancel function the
// budget (or a kill) fires. maxBytes <= 0 leaves the budget unlimited but
// still arms the cancel for kills.
func (c *Context) ArmLimit(maxBytes int64, cancel context.CancelCauseFunc) {
	if c == nil {
		return
	}
	c.maxBytes = maxBytes
	c.cancel = cancel
}

// MarkExec records the moment the engine actually started evaluating;
// everything between NewContext and here counts as queue time. Only the
// first call wins.
func (c *Context) MarkExec() {
	if c != nil {
		c.execStart.CompareAndSwap(0, time.Now().UnixNano())
	}
}

// Finish pins the query end time so later Snapshot calls stop the clock.
// Only the first call wins.
func (c *Context) Finish() {
	if c != nil {
		c.endNS.CompareAndSwap(0, time.Now().UnixNano())
	}
}

// SetQueueTime records time the query spent queued before evaluation
// (measured by the tracker); it is reported in the summary block.
func (c *Context) SetQueueTime(d time.Duration) {
	if c != nil {
		c.queueNS.Store(int64(d))
	}
}

// addScanned is the budget-enforcing accumulation point: every flushed
// byte/line lands here, and the first flush to push the total past
// maxBytes cancels the query with ErrMaxBytesScanned.
func (c *Context) addScanned(bytes, lines int64) {
	if c == nil {
		return
	}
	total := c.bytesProcessed.Add(bytes)
	c.linesProcessed.Add(lines)
	if c.maxBytes > 0 && total > c.maxBytes && c.cancel != nil {
		if c.breached.CompareAndSwap(false, true) {
			c.cancel(ErrMaxBytesScanned)
		}
	}
}

// AddShardsTouched counts store shards that held at least one candidate
// stream or series for this query.
func (c *Context) AddShardsTouched(n int64) {
	if c != nil {
		c.shardsTouched.Add(n)
	}
}

// AddStreams counts streams (or TSDB series) selected by the query.
func (c *Context) AddStreams(n int64) {
	if c != nil {
		c.streamsSelected.Add(n)
	}
}

// AddSplit counts one sub-evaluation of a range query: one frontend
// time split, or the whole range when no frontend is attached.
func (c *Context) AddSplit() {
	if c != nil {
		c.splits.Add(1)
	}
}

// AddResultCacheHit counts one frontend results-cache hit serving a
// split of this query, carrying approximately bytes of result data.
func (c *Context) AddResultCacheHit(bytes int64) {
	if c != nil {
		c.resultCacheHits.Add(1)
		c.resultCacheHitBytes.Add(bytes)
	}
}

// AddResultCacheMiss counts one frontend results-cache miss.
func (c *Context) AddResultCacheMiss() {
	if c != nil {
		c.resultCacheMisses.Add(1)
	}
}

// AddEntriesReturned counts entries (or vector samples) in the result.
func (c *Context) AddEntriesReturned(n int64) {
	if c != nil {
		c.entriesReturned.Add(n)
	}
}

// AddSpan records a timed region for the trace waterfall.
func (c *Context) AddSpan(stage string, start, end time.Time, note string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.spans = append(c.spans, Span{Stage: stage, Start: start, End: end, Note: note})
	c.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (c *Context) Spans() []Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Span(nil), c.spans...)
}

// LimitBreached reports whether the byte budget fired.
func (c *Context) LimitBreached() bool { return c != nil && c.breached.Load() }

// BytesProcessed returns the running scanned-byte total.
func (c *Context) BytesProcessed() int64 {
	if c == nil {
		return 0
	}
	return c.bytesProcessed.Load()
}

// Worker is a per-worker statistics shard: plain int64 fields a single
// goroutine owns while it scans, merged into the shared Context with one
// batch of atomic adds on FlushTo. Workers flush at chunk granularity, so
// limit enforcement sees the running total promptly without per-line
// atomic traffic.
type Worker struct {
	BytesProcessed     int64
	LinesProcessed     int64
	ChunksOpened       int64
	BlocksDecompressed int64
	DecompressedBytes  int64
	CacheHits          int64
	CacheMisses        int64
}

// FlushTo merges the worker's counts into c and zeroes the worker. Safe
// with a nil Context (the counts are discarded).
func (w *Worker) FlushTo(c *Context) {
	if c != nil {
		c.addScanned(w.BytesProcessed, w.LinesProcessed)
		c.chunksOpened.Add(w.ChunksOpened)
		c.blocksDecompressed.Add(w.BlocksDecompressed)
		c.decompressedBytes.Add(w.DecompressedBytes)
		c.cacheHits.Add(w.CacheHits)
		c.cacheMisses.Add(w.CacheMisses)
	}
	*w = Worker{}
}

// SummaryStats is the top-level section of the statistics block, named
// after Loki's summary fields.
type SummaryStats struct {
	TotalBytesProcessed     int64   `json:"totalBytesProcessed"`
	TotalLinesProcessed     int64   `json:"totalLinesProcessed"`
	TotalEntriesReturned    int64   `json:"totalEntriesReturned"`
	BytesProcessedPerSecond int64   `json:"bytesProcessedPerSecond"`
	LinesProcessedPerSecond int64   `json:"linesProcessedPerSecond"`
	Splits                  int64   `json:"splits"`
	Shards                  int64   `json:"shards"`
	QueueTime               float64 `json:"queueTime"`
	ExecTime                float64 `json:"execTime"`
	TotalTime               float64 `json:"totalTime"`
}

// StoreStats is the store/chunk section of the statistics block.
type StoreStats struct {
	StreamsSelected    int64 `json:"streamsSelected"`
	ChunksOpened       int64 `json:"chunksOpened"`
	BlocksDecompressed int64 `json:"blocksDecompressed"`
	DecompressedBytes  int64 `json:"decompressedBytes"`
	CacheHits          int64 `json:"cacheHits"`
	CacheMisses        int64 `json:"cacheMisses"`
}

// FrontendStats is the query-frontend section of the statistics block:
// results-cache effectiveness for this query's splits.
type FrontendStats struct {
	ResultCacheHits     int64 `json:"resultCacheHits"`
	ResultCacheMisses   int64 `json:"resultCacheMisses"`
	ResultCacheHitBytes int64 `json:"resultCacheHitBytes"`
}

// Snapshot is the wire form of a query's statistics: the `statistics`
// object attached to query API responses, the slowlog record and the
// /debug/queries running view.
type Snapshot struct {
	Summary  SummaryStats  `json:"summary"`
	Store    StoreStats    `json:"store"`
	Frontend FrontendStats `json:"frontend"`
}

// Snapshot captures the current totals. On a live query the clock is
// still running; after Finish the times are pinned.
func (c *Context) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	var s Snapshot
	now := time.Now()
	end := now
	if ns := c.endNS.Load(); ns != 0 {
		end = time.Unix(0, ns)
	}
	exec := end.Sub(c.start)
	if ns := c.execStart.Load(); ns != 0 {
		exec = end.Sub(time.Unix(0, ns))
	}
	if exec < 0 {
		exec = 0
	}
	queue := time.Duration(c.queueNS.Load())
	s.Summary = SummaryStats{
		TotalBytesProcessed:  c.bytesProcessed.Load(),
		TotalLinesProcessed:  c.linesProcessed.Load(),
		TotalEntriesReturned: c.entriesReturned.Load(),
		Splits:               c.splits.Load(),
		Shards:               c.shardsTouched.Load(),
		QueueTime:            queue.Seconds(),
		ExecTime:             exec.Seconds(),
		TotalTime:            end.Sub(c.start).Seconds(),
	}
	if sec := exec.Seconds(); sec > 0 {
		s.Summary.BytesProcessedPerSecond = int64(float64(s.Summary.TotalBytesProcessed) / sec)
		s.Summary.LinesProcessedPerSecond = int64(float64(s.Summary.TotalLinesProcessed) / sec)
	}
	s.Store = StoreStats{
		StreamsSelected:    c.streamsSelected.Load(),
		ChunksOpened:       c.chunksOpened.Load(),
		BlocksDecompressed: c.blocksDecompressed.Load(),
		DecompressedBytes:  c.decompressedBytes.Load(),
		CacheHits:          c.cacheHits.Load(),
		CacheMisses:        c.cacheMisses.Load(),
	}
	s.Frontend = FrontendStats{
		ResultCacheHits:     c.resultCacheHits.Load(),
		ResultCacheMisses:   c.resultCacheMisses.Load(),
		ResultCacheHitBytes: c.resultCacheHitBytes.Load(),
	}
	return s
}

// ServerTiming renders the snapshot as a Server-Timing header value:
// queue/exec/total durations plus the headline scan counters as metric
// descriptions.
func (s Snapshot) ServerTiming() string {
	return fmt.Sprintf(
		"queue;dur=%.3f, exec;dur=%.3f, total;dur=%.3f, bytes;desc=%q, lines;desc=%q, cache;desc=%q",
		s.Summary.QueueTime*1000, s.Summary.ExecTime*1000, s.Summary.TotalTime*1000,
		fmt.Sprintf("%d processed", s.Summary.TotalBytesProcessed),
		fmt.Sprintf("%d processed", s.Summary.TotalLinesProcessed),
		fmt.Sprintf("%d hit/%d miss", s.Store.CacheHits, s.Store.CacheMisses),
	)
}
