package frontend

import (
	"sync/atomic"

	"shastamon/internal/parallel"
	"shastamon/internal/stats"
)

// Base is the plumbing both query engines embed: the bound on a query's
// worker pool and its in-flight gauge, the active-query tracker and the
// attached frontend. The zero value runs GOMAXPROCS workers with neither
// tracker nor frontend. Its setters are for setup, not for use
// concurrently with queries.
type Base struct {
	workers  int
	inFlight atomic.Int64
	tracker  *stats.Tracker
	frontend *Frontend
}

// SetParallelism bounds the worker pool a query fans its streams or
// series out on; n <= 1 evaluates sequentially.
func (b *Base) SetParallelism(n int) { b.workers = max(n, 1) }

// QueryParallelism reports the number of in-flight query workers; the
// warehouse exposes it as a gauge.
func (b *Base) QueryParallelism() int64 { return b.inFlight.Load() }

// Parallel runs fn(i) for every i in [0, n) on the query worker pool.
func (b *Base) Parallel(n int, fn func(i int)) {
	parallel.Do(n, parallel.Workers(b.workers), &b.inFlight, fn)
}

// SetTracker attaches the active-query tracker the HTTP handler registers
// queries with.
func (b *Base) SetTracker(t *stats.Tracker) { b.tracker = t }

// Tracker returns the attached active-query tracker, nil when unset.
func (b *Base) Tracker() *stats.Tracker { return b.tracker }

// SetFrontend routes range queries through f (splitting, results
// caching, admission control and, where the engine proves a query
// shard-mergeable, shard fan-out).
func (b *Base) SetFrontend(f *Frontend) { b.frontend = f }

// Frontend returns the attached query frontend, nil when unset.
func (b *Base) Frontend() *Frontend { return b.frontend }

// NumPoints counts the points of m, the entries a range query returns.
func (m Matrix) NumPoints() int {
	n := 0
	for _, s := range m {
		n += len(s.Points)
	}
	return n
}
