package stats

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"shastamon/internal/obs"
)

// Config carries the per-query limits and the slowlog threshold; the
// warehouse takes it as omni.Config.QueryLimits.
type Config struct {
	// MaxBytesScanned cancels any query whose cumulative scanned bytes
	// exceed the budget (Loki's max_query_bytes_read). 0 disables the
	// limit.
	MaxBytesScanned int64
	// Timeout cancels any query running longer than this wall-clock
	// budget. 0 disables the limit.
	Timeout time.Duration
	// SlowThreshold records queries at least this slow in the slowlog.
	// 0 disables duration-based slowlogging (limit breaches and kills are
	// always recorded).
	SlowThreshold time.Duration
}

// slowLogSize bounds the slowlog ring buffer.
const slowLogSize = 128

// Histogram buckets for scan volume and throughput: queries range from a
// few KB (instant panel refresh) to multi-GB dashboard ranges.
var (
	bytesBuckets      = []float64{4 << 10, 64 << 10, 1 << 20, 16 << 20, 256 << 20, 1 << 30, 4 << 30}
	throughputBuckets = []float64{1 << 20, 16 << 20, 64 << 20, 256 << 20, 1 << 30, 4 << 30}
)

// ActiveQuery is the wire form of one live query on /debug/queries.
type ActiveQuery struct {
	ID      string    `json:"id"`
	Engine  string    `json:"engine"`
	Query   string    `json:"query"`
	TraceID string    `json:"traceId,omitempty"`
	Start   time.Time `json:"start"`
	Elapsed float64   `json:"elapsed"`
	Stats   Snapshot  `json:"stats"`
}

// SlowEntry is one slowlog record: a query that crossed the slow
// threshold, breached a limit, or was killed.
type SlowEntry struct {
	ID       string    `json:"id"`
	Engine   string    `json:"engine"`
	Query    string    `json:"query"`
	TraceID  string    `json:"traceId,omitempty"`
	Start    time.Time `json:"start"`
	Duration float64   `json:"duration"`
	Reason   string    `json:"reason"`
	Error    string    `json:"error,omitempty"`
	Stats    Snapshot  `json:"stats"`
}

type activeQuery struct {
	id     string
	engine string
	query  string
	trace  string
	start  time.Time
	sc     *Context
	cancel context.CancelCauseFunc
}

// Tracker is the active-query registry: it arms per-query limits, lists
// live queries with running stats, kills runaways, keeps the slowlog ring
// and observes the shastamon_query_* metric families. A nil *Tracker is
// safe: Start still returns a working stats context, everything else
// no-ops.
type Tracker struct {
	cfg Config

	mu       sync.Mutex
	seq      uint64
	active   map[string]*activeQuery
	slow     []SlowEntry
	slowNext int
	tracer   *obs.Tracer

	dur      *obs.HistogramVec
	bytes    *obs.Histogram
	thru     *obs.Histogram
	slowCtr  *obs.CounterVec
	limitCtr *obs.CounterVec
}

// NewTracker registers the query metric families on reg and returns a
// tracker enforcing cfg.
func NewTracker(reg *obs.Registry, cfg Config) *Tracker {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	t := &Tracker{cfg: cfg, active: map[string]*activeQuery{}}
	t.dur = reg.HistogramVec(obs.Namespace+"query_duration_seconds",
		"Query wall-clock duration, by engine.", obs.DefBuckets, "engine")
	t.bytes = reg.Histogram(obs.Namespace+"query_bytes_processed",
		"Raw log/sample bytes scanned per query.", bytesBuckets)
	t.thru = reg.Histogram(obs.Namespace+"query_throughput_bytes_per_second",
		"Per-query scan throughput (bytes processed / exec time).", throughputBuckets)
	t.slowCtr = reg.CounterVec(obs.Namespace+"query_slow_total",
		"Queries recorded in the slow-query log, by engine.", "engine")
	t.limitCtr = reg.CounterVec(obs.Namespace+"query_limit_breached_total",
		"Queries cancelled by a limit or an operator, by reason.", "reason")
	reg.GaugeFunc(obs.Namespace+"queries_active",
		"Queries currently executing.", func() float64 {
			t.mu.Lock()
			defer t.mu.Unlock()
			return float64(len(t.active))
		})
	return t
}

// SetTracer points the tracker at the pipeline tracer so finished queries
// replay their spans into /debug/trace/{id}.
func (t *Tracker) SetTracer(tr *obs.Tracer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.tracer = tr
	t.mu.Unlock()
}

// Config returns the limits the tracker enforces.
func (t *Tracker) Config() Config {
	if t == nil {
		return Config{}
	}
	return t.cfg
}

// Start registers a query: it derives a cancellable, limit-armed context
// carrying a fresh stats.Context and returns it with a finish func the
// caller must invoke exactly once with the query's error. finish records
// metrics, the slowlog entry and the trace spans, and returns the final
// statistics snapshot.
func (t *Tracker) Start(ctx context.Context, engine, query string) (context.Context, func(err error) Snapshot) {
	qctx, sc := NewContext(ctx)
	if t == nil {
		return qctx, func(error) Snapshot { sc.Finish(); return sc.Snapshot() }
	}
	start := time.Now()
	cancelTimeout := func() {}
	if t.cfg.Timeout > 0 {
		qctx, cancelTimeout = context.WithTimeoutCause(qctx, t.cfg.Timeout, ErrQueryTimeout)
	}
	qctx, cancel := context.WithCancelCause(qctx)
	sc.ArmLimit(t.cfg.MaxBytesScanned, cancel)

	t.mu.Lock()
	t.seq++
	id := "q" + strconv.FormatUint(t.seq, 10)
	tracer := t.tracer
	t.mu.Unlock()

	var tid string
	if tracer != nil {
		tid = tracer.Start("query:"+id, start, engine+" "+query)
		qctx = obs.WithTraceID(qctx, tid)
	}
	aq := &activeQuery{id: id, engine: engine, query: query, trace: tid,
		start: start, sc: sc, cancel: cancel}
	t.mu.Lock()
	t.active[id] = aq
	t.mu.Unlock()

	return qctx, func(err error) Snapshot {
		cancelTimeout()
		end := time.Now()
		sc.Finish()
		t.mu.Lock()
		_, live := t.active[id]
		delete(t.active, id)
		t.mu.Unlock()
		snap := sc.Snapshot()
		if !live { // double finish: record nothing twice
			return snap
		}
		cancel(context.Canceled)

		dur := end.Sub(start)
		reason := limitReason(err)
		h := t.dur.With(engine)
		if tid != "" {
			h.ObserveWithExemplar(dur.Seconds(), end.UnixMilli(), "trace_id", tid)
		} else {
			h.Observe(dur.Seconds())
		}
		t.bytes.Observe(float64(snap.Summary.TotalBytesProcessed))
		if snap.Summary.ExecTime > 0 {
			t.thru.Observe(float64(snap.Summary.TotalBytesProcessed) / snap.Summary.ExecTime)
		}
		if reason != "" {
			t.limitCtr.With(reason).Inc()
		}
		if reason != "" || (t.cfg.SlowThreshold > 0 && dur >= t.cfg.SlowThreshold) {
			t.slowCtr.With(engine).Inc()
			e := SlowEntry{ID: id, Engine: engine, Query: query, TraceID: tid,
				Start: start, Duration: dur.Seconds(), Reason: reason, Stats: snap}
			if e.Reason == "" {
				e.Reason = "slow"
			}
			if err != nil {
				e.Error = err.Error()
			}
			t.recordSlow(e)
		}
		if tracer != nil {
			for _, sp := range sc.Spans() {
				tracer.Span(tid, sp.Stage, sp.Start, sp.End, sp.Note)
			}
			tracer.Span(tid, "query.total", start, end, query)
			tracer.Annotate(tid, "bytes_processed", strconv.FormatInt(snap.Summary.TotalBytesProcessed, 10))
			tracer.Annotate(tid, "lines_processed", strconv.FormatInt(snap.Summary.TotalLinesProcessed, 10))
			tracer.Annotate(tid, "cache",
				strconv.FormatInt(snap.Store.CacheHits, 10)+" hit / "+strconv.FormatInt(snap.Store.CacheMisses, 10)+" miss")
			if err != nil {
				tracer.Annotate(tid, "error", err.Error())
			}
		}
		return snap
	}
}

// limitReason classifies a query error as a limit breach: the reason
// label on shastamon_query_limit_breached_total, "" for ordinary errors.
func limitReason(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrMaxBytesScanned):
		return "bytes"
	case errors.Is(err, ErrQueryTimeout):
		return "timeout"
	case errors.Is(err, ErrKilled):
		return "killed"
	case errors.Is(err, ErrQueueFull):
		return "queue"
	}
	return ""
}

// Kill cancels a live query by ID. It reports whether the query existed.
func (t *Tracker) Kill(id string) bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	aq := t.active[id]
	t.mu.Unlock()
	if aq == nil {
		return false
	}
	aq.cancel(ErrKilled)
	return true
}

// Active lists the live queries, oldest first.
func (t *Tracker) Active() []ActiveQuery {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	list := make([]*activeQuery, 0, len(t.active))
	for _, aq := range t.active {
		list = append(list, aq)
	}
	t.mu.Unlock()
	sort.Slice(list, func(i, j int) bool {
		if !list[i].start.Equal(list[j].start) {
			return list[i].start.Before(list[j].start)
		}
		return list[i].id < list[j].id
	})
	out := make([]ActiveQuery, len(list))
	for i, aq := range list {
		out[i] = ActiveQuery{ID: aq.id, Engine: aq.engine, Query: aq.query,
			TraceID: aq.trace, Start: aq.start,
			Elapsed: now.Sub(aq.start).Seconds(), Stats: aq.sc.Snapshot()}
	}
	return out
}

func (t *Tracker) recordSlow(e SlowEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.slow) < slowLogSize {
		t.slow = append(t.slow, e)
		t.slowNext = len(t.slow) % slowLogSize
		return
	}
	t.slow[t.slowNext] = e
	t.slowNext = (t.slowNext + 1) % len(t.slow)
}

// SlowLog returns the slowlog entries, newest first.
func (t *Tracker) SlowLog() []SlowEntry {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.slow)
	out := make([]SlowEntry, 0, n)
	if n < slowLogSize {
		for i := n - 1; i >= 0; i-- {
			out = append(out, t.slow[i])
		}
		return out
	}
	for i := 1; i <= n; i++ {
		out = append(out, t.slow[(t.slowNext-i+n)%n])
	}
	return out
}

// Handler serves the query introspection endpoints:
//
//	GET  /debug/queries            live queries with elapsed time and running stats
//	POST /debug/queries/{id}/kill  cancel a runaway query
//	GET  /debug/slowlog            slow-query ring buffer, newest first
func (t *Tracker) Handler() http.Handler {
	if t == nil {
		return http.NotFoundHandler()
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		path := strings.TrimSuffix(r.URL.Path, "/")
		switch {
		case path == "/debug/queries":
			writeJSON(w, struct {
				Queries []ActiveQuery `json:"queries"`
			}{t.Active()})
		case path == "/debug/slowlog":
			writeJSON(w, struct {
				Slowlog []SlowEntry `json:"slowlog"`
			}{t.SlowLog()})
		case strings.HasPrefix(path, "/debug/queries/") && strings.HasSuffix(path, "/kill"):
			if r.Method != http.MethodPost {
				http.Error(w, "kill requires POST", http.StatusMethodNotAllowed)
				return
			}
			id := strings.TrimSuffix(strings.TrimPrefix(path, "/debug/queries/"), "/kill")
			if !t.Kill(id) {
				http.Error(w, "no such query: "+id, http.StatusNotFound)
				return
			}
			writeJSON(w, map[string]string{"killed": id})
		default:
			http.NotFound(w, r)
		}
	})
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
