package frontend

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"shastamon/internal/labels"
	"shastamon/internal/stats"
)

// gridPoints enumerates the step grid a monolithic evaluation would walk.
func gridPoints(start, end, step int64) []int64 {
	var out []int64
	for t := start; t <= end; t += step {
		out = append(out, t)
	}
	return out
}

// spanPoints enumerates the step points the spans cover, in order.
func spanPoints(spans []span, step int64) []int64 {
	var out []int64
	for _, sp := range spans {
		for t := sp.start; t <= sp.end; t += step {
			out = append(out, t)
		}
	}
	return out
}

func sameInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSplitSpansPartitionStepGrid(t *testing.T) {
	cases := []struct{ start, end, step, interval int64 }{
		{0, 100, 7, 30},    // range not divisible by step
		{0, 100, 7, 1000},  // single bucket
		{13, 13, 5, 10},    // single instant
		{13, 12, 5, 10},    // empty range
		{-95, 45, 7, 30},   // pre-epoch start (floorDiv path)
		{1000, 5000, 1, 1}, // step == interval
		{3, 1000, 17, 64},  // unaligned everything
	}
	for _, tc := range cases {
		spans := splitSpans(tc.start, tc.end, tc.step, tc.interval)
		want := gridPoints(tc.start, tc.end, tc.step)
		got := spanPoints(spans, tc.step)
		if !sameInts(want, got) {
			t.Errorf("splitSpans(%d,%d,%d,%d): grid %v, spans cover %v",
				tc.start, tc.end, tc.step, tc.interval, want, got)
		}
		for _, sp := range spans {
			if sp.end < sp.start {
				t.Errorf("splitSpans(%+v): inverted span %+v", tc, sp)
			}
		}
	}
}

// A window sliding forward by whole steps must produce identical spans for
// the shared buckets — that alignment is what makes cache reuse work.
func TestSplitSpansAbsoluteAlignment(t *testing.T) {
	const step, interval = 10, 100
	a := splitSpans(0, 500, step, interval)
	b := splitSpans(50, 550, step, interval)
	shared := map[span]bool{}
	for _, sp := range a {
		shared[sp] = true
	}
	overlap := 0
	for _, sp := range b {
		if shared[sp] {
			overlap++
		}
	}
	// Buckets [100,190] ... [400,490] are interior to both windows.
	if overlap < 4 {
		t.Fatalf("slid window shares only %d spans with original: %v vs %v", overlap, a, b)
	}
}

// evalRecorder builds an Eval that emits one deterministic series and
// counts invocations.
func evalRecorder(calls *atomic.Int64) func(ctx context.Context, start, end int64, shard int) (Matrix, error) {
	return func(ctx context.Context, start, end int64, shard int) (Matrix, error) {
		calls.Add(1)
		return Matrix{{
			Labels: labels.FromStrings("app", "x"),
			Points: []Point{{T: start, V: float64(start)}, {T: end, V: float64(end)}},
		}}, nil
	}
}

// A range reaching the int64 bounds ends: the step loop and the split
// grid stop at end instead of stepping past it into an overflow.
func TestRangeAtInt64Bounds(t *testing.T) {
	one := func(_ context.Context, ts int64) (Vector, error) { return Vector{{T: ts, V: 1}}, nil }
	for _, c := range []struct {
		start, end, step int64
		points           int
	}{
		{math.MaxInt64 - 10, math.MaxInt64, 60e9, 1},
		{math.MaxInt64 - 10, math.MaxInt64, 5, 3},
		{math.MinInt64, math.MaxInt64, math.MaxInt64, 3},
		{math.MinInt64, math.MinInt64 + 5, 2, 3},
	} {
		m, err := Range(context.Background(), c.start, c.end, c.step, one)
		if err != nil || m.NumPoints() != c.points {
			t.Errorf("Range(%d, %d, %d): %d points (%v), want %d", c.start, c.end, c.step, m.NumPoints(), err, c.points)
		}
		n := 0
		for _, sp := range splitSpans(c.start, c.end, c.step, int64(5*time.Minute)) {
			n += int(uint64(sp.end-sp.start)/uint64(c.step)) + 1
		}
		if n != c.points {
			t.Errorf("splitSpans(%d, %d, %d) covers %d points, want %d", c.start, c.end, c.step, n, c.points)
		}
	}
}

func TestQueryRangeCachesImmutableSplits(t *testing.T) {
	now := time.Unix(10_000, 0)
	f := New(Config{SplitInterval: 100 * time.Nanosecond, Now: func() time.Time { return now }})
	var calls atomic.Int64
	req := Request{
		Engine: "logql", Query: `count_over_time({app="x"}[1s])`,
		Start: 0, End: 499, Step: 10, Unit: time.Nanosecond,
		Eval: evalRecorder(&calls),
	}
	ctx, sc := stats.NewContext(context.Background())
	first, err := f.QueryRange(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	cold := calls.Load()
	if cold != 5 {
		t.Fatalf("cold query ran %d splits, want 5", cold)
	}
	if sc.Snapshot().Summary.Splits != 5 {
		t.Fatalf("stats splits = %d, want 5", sc.Snapshot().Summary.Splits)
	}

	ctx2, sc2 := stats.NewContext(context.Background())
	second, err := f.QueryRange(ctx2, req)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != cold {
		t.Fatalf("warm query re-evaluated: %d calls total, want %d", calls.Load(), cold)
	}
	snap := sc2.Snapshot()
	if snap.Frontend.ResultCacheHits != 5 || snap.Frontend.ResultCacheHitBytes <= 0 {
		t.Fatalf("warm stats: %+v", snap.Frontend)
	}
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("cached result differs:\n%v\n%v", first, second)
	}
}

func TestQueryRangeNeverCachesMutableHead(t *testing.T) {
	// Freshness cutoff lands mid-range: spans ending after now-1m must
	// re-evaluate on every query.
	now := time.Unix(0, 250)
	f := New(Config{
		SplitInterval:  100 * time.Nanosecond,
		CacheFreshness: time.Nanosecond, // cutoff = 249
		Now:            func() time.Time { return now },
	})
	var calls atomic.Int64
	req := Request{
		Engine: "logql", Query: "q",
		Start: 0, End: 499, Step: 10,
		Eval: evalRecorder(&calls),
	}
	if _, err := f.QueryRange(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	cold := calls.Load()
	if _, err := f.QueryRange(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	// Spans [0,90] and [100,190] end before the 249 cutoff and cache;
	// [200,290], [300,390], [400,490] are head and re-run.
	rerun := calls.Load() - cold
	if rerun != 3 {
		t.Fatalf("second query re-evaluated %d splits, want the 3 head splits", rerun)
	}
}

func TestWithoutCacheBypasses(t *testing.T) {
	now := time.Unix(10_000, 0)
	f := New(Config{SplitInterval: 100 * time.Nanosecond, Now: func() time.Time { return now }})
	var calls atomic.Int64
	req := Request{Engine: "logql", Query: "q", Start: 0, End: 499, Step: 10, Eval: evalRecorder(&calls)}
	ctx := WithoutCache(context.Background())
	for i := 0; i < 2; i++ {
		if _, err := f.QueryRange(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != 10 {
		t.Fatalf("bypassed queries ran %d evals, want 10", calls.Load())
	}
	if st := f.CacheStats(); st.Entries != 0 {
		t.Fatalf("bypass populated the cache: %+v", st)
	}
	// The bypass covers reads too: with the cache populated by an
	// ordinary query, a bypassed one still evaluates every split.
	if _, err := f.QueryRange(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if st := f.CacheStats(); st.Entries != 5 {
		t.Fatalf("ordinary query cached %d splits, want 5", st.Entries)
	}
	if _, err := f.QueryRange(ctx, req); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 20 {
		t.Fatalf("bypassed query over a populated cache: %d evals total, want 20", calls.Load())
	}
}

func TestQueueSheddingRejectsWithErrQueueFull(t *testing.T) {
	f := New(Config{MaxConcurrent: 1, MaxQueueDepth: -1}) // one slot, no wait line
	block := make(chan struct{})
	started := make(chan struct{})
	req := Request{
		Engine: "logql", Query: "slow", Start: 0, End: 0, Step: 1,
		Eval: func(ctx context.Context, start, end int64, shard int) (Matrix, error) {
			close(started)
			<-block
			return Matrix{}, nil
		},
	}
	done := make(chan error, 1)
	go func() {
		_, err := f.QueryRange(context.Background(), req)
		done <- err
	}()
	<-started

	fast := Request{Engine: "logql", Query: "fast", Start: 0, End: 0, Step: 1,
		Eval: evalRecorder(new(atomic.Int64))}
	_, err := f.QueryRange(context.Background(), fast)
	if !errors.Is(err, stats.ErrQueueFull) {
		t.Fatalf("saturated frontend returned %v, want ErrQueueFull", err)
	}
	if f.Rejected() != 1 {
		t.Fatalf("Rejected() = %d, want 1", f.Rejected())
	}

	// Engines queue independently: promql still has a free slot.
	fast.Engine = "promql"
	if _, err := f.QueryRange(context.Background(), fast); err != nil {
		t.Fatalf("independent engine queue rejected: %v", err)
	}

	close(block)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Slot released: the same engine admits again.
	fast.Engine = "logql"
	if _, err := f.QueryRange(context.Background(), fast); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

func TestQueueWaitAdmitsWhenSlotFrees(t *testing.T) {
	f := New(Config{MaxConcurrent: 1, MaxQueueDepth: 1})
	block := make(chan struct{})
	started := make(chan struct{})
	slow := Request{Engine: "logql", Query: "slow", Start: 0, End: 0, Step: 1,
		Eval: func(ctx context.Context, start, end int64, shard int) (Matrix, error) {
			close(started)
			<-block
			return Matrix{}, nil
		},
	}
	slowDone := make(chan error, 1)
	go func() {
		_, err := f.QueryRange(context.Background(), slow)
		slowDone <- err
	}()
	<-started

	waiterDone := make(chan error, 1)
	fast := Request{Engine: "logql", Query: "fast", Start: 0, End: 0, Step: 1,
		Eval: evalRecorder(new(atomic.Int64))}
	go func() {
		_, err := f.QueryRange(context.Background(), fast)
		waiterDone <- err
	}()
	// Wait for the second query to join the wait line, then release.
	for i := 0; f.QueueDepth() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if f.QueueDepth() != 1 {
		t.Fatalf("QueueDepth() = %d, want 1 waiter", f.QueueDepth())
	}
	close(block)
	if err := <-slowDone; err != nil {
		t.Fatal(err)
	}
	if err := <-waiterDone; err != nil {
		t.Fatalf("queued query failed: %v", err)
	}
}

func TestQueueWaitRespectsContextCancel(t *testing.T) {
	f := New(Config{MaxConcurrent: 1, MaxQueueDepth: 4})
	block := make(chan struct{})
	defer close(block)
	started := make(chan struct{})
	slow := Request{Engine: "logql", Query: "slow", Start: 0, End: 0, Step: 1,
		Eval: func(ctx context.Context, start, end int64, shard int) (Matrix, error) {
			close(started)
			<-block
			return Matrix{}, nil
		},
	}
	go f.QueryRange(context.Background(), slow)
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	fast := Request{Engine: "logql", Query: "fast", Start: 0, End: 0, Step: 1,
		Eval: evalRecorder(new(atomic.Int64))}
	if _, err := f.QueryRange(ctx, fast); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}
}

func TestCacheEvictionHoldsByteBudget(t *testing.T) {
	now := time.Unix(10_000, 0)
	// Budget fits roughly two single-series split results.
	f := New(Config{SplitInterval: 100 * time.Nanosecond, CacheBytes: 400, Now: func() time.Time { return now }})
	var calls atomic.Int64
	for i := 0; i < 8; i++ {
		req := Request{
			Engine: "logql", Query: fmt.Sprintf("q%d", i),
			Start: 0, End: 99, Step: 10,
			Eval: evalRecorder(&calls),
		}
		if _, err := f.QueryRange(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	st := f.CacheStats()
	if st.Bytes > 400 {
		t.Fatalf("cache over budget: %+v", st)
	}
	if st.Evictions == 0 {
		t.Fatalf("no evictions after 8 distinct cached queries: %+v", st)
	}
}

func TestInvalidateBeforeDropsAndRefusesStaleAdmissions(t *testing.T) {
	rc := newResultCache(1 << 20)
	m := Matrix{{Labels: labels.FromStrings("a", "b"), Points: []Point{{T: 1, V: 1}}}}
	rc.put("fake", "logql", "q", 10, span{1000, 1090}, time.Nanosecond, 500, m)
	if _, _, ok := rc.get("fake", "logql", "q", 10, span{1000, 1090}); !ok {
		t.Fatal("entry not cached")
	}
	// Horizon reaches into the entry's data window (1000-500=500 < 600).
	if dropped := rc.invalidateBefore(600); dropped != 1 {
		t.Fatalf("invalidateBefore dropped %d, want 1", dropped)
	}
	if _, _, ok := rc.get("fake", "logql", "q", 10, span{1000, 1090}); ok {
		t.Fatal("invalidated entry still served")
	}
	// A racing evaluation that read pre-retention data must be refused.
	rc.put("fake", "logql", "q", 10, span{1000, 1090}, time.Nanosecond, 500, m)
	if _, _, ok := rc.get("fake", "logql", "q", 10, span{1000, 1090}); ok {
		t.Fatal("stale admission accepted after invalidation high-water")
	}
	// A window fully above the horizon is admitted.
	rc.put("fake", "logql", "q", 10, span{2000, 2090}, time.Nanosecond, 500, m)
	if _, _, ok := rc.get("fake", "logql", "q", 10, span{2000, 2090}); !ok {
		t.Fatal("fresh window refused")
	}
}

func TestMergeShards(t *testing.T) {
	l := labels.FromStrings("app", "x")
	parts := []Matrix{
		{{Labels: l, Points: []Point{{T: 10, V: 3}, {T: 20, V: 1}}}},
		{{Labels: l, Points: []Point{{T: 10, V: 2}, {T: 30, V: 7}}}},
	}
	sum, err := mergeShards("sum", parts)
	if err != nil {
		t.Fatal(err)
	}
	want := "[{T:10 V:5} {T:20 V:1} {T:30 V:7}]"
	if got := fmt.Sprintf("%+v", sum[0].Points); got != want {
		t.Fatalf("sum merge = %s, want %s", got, want)
	}
	max, _ := mergeShards("max", parts)
	if max[0].Points[0].V != 3 {
		t.Fatalf("max merge T=10 -> %v, want 3", max[0].Points[0].V)
	}
	min, _ := mergeShards("min", parts)
	if min[0].Points[0].V != 2 {
		t.Fatalf("min merge T=10 -> %v, want 2", min[0].Points[0].V)
	}
	if _, err := mergeShards("avg", parts); err == nil {
		t.Fatal("unsupported merge op accepted")
	}
}

// A NaN partial never wins a min/max shard merge over a number, in
// either shard order.
func TestMergeShardsNaN(t *testing.T) {
	l := labels.FromStrings("app", "x")
	nan := Matrix{{Labels: l, Points: []Point{{T: 10, V: math.NaN()}}}}
	num := Matrix{{Labels: l, Points: []Point{{T: 10, V: 5}}}}
	for _, op := range []string{"min", "max"} {
		for _, parts := range [][]Matrix{{nan, num}, {num, nan}} {
			m, err := mergeShards(op, parts)
			if err != nil {
				t.Fatal(err)
			}
			if v := m[0].Points[0].V; v != 5 {
				t.Errorf("%s merge of NaN and 5 = %v, want 5", op, v)
			}
		}
	}
}

func TestShardFanoutMergesAcrossShards(t *testing.T) {
	now := time.Unix(10_000, 0)
	f := New(Config{SplitInterval: -1, Now: func() time.Time { return now }})
	var shardsSeen atomic.Int64
	req := Request{
		Engine: "logql", Query: "q", Start: 0, End: 90, Step: 10,
		Shards: 4, MergeOp: "sum",
		Eval: func(ctx context.Context, start, end int64, shard int) (Matrix, error) {
			if shard < 0 || shard > 3 {
				return nil, fmt.Errorf("unexpected shard %d", shard)
			}
			shardsSeen.Add(1)
			return Matrix{{Labels: labels.FromStrings("app", "x"),
				Points: []Point{{T: 0, V: 1}}}}, nil
		},
	}
	m, err := f.QueryRange(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if shardsSeen.Load() != 4 {
		t.Fatalf("fan-out ran %d shard evals, want 4", shardsSeen.Load())
	}
	if len(m) != 1 || m[0].Points[0].V != 4 {
		t.Fatalf("sum across shards = %v, want single series V=4", m)
	}

	// NoShardFanout falls back to one unsharded eval (shard = -1).
	f2 := New(Config{SplitInterval: -1, NoShardFanout: true, Now: func() time.Time { return now }})
	var unshardedCalls atomic.Int64
	req.Query = "q2"
	req.Eval = func(ctx context.Context, start, end int64, shard int) (Matrix, error) {
		if shard != -1 {
			return nil, fmt.Errorf("fan-out despite NoShardFanout: shard %d", shard)
		}
		unshardedCalls.Add(1)
		return Matrix{}, nil
	}
	if _, err := f2.QueryRange(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if unshardedCalls.Load() != 1 {
		t.Fatalf("NoShardFanout ran %d evals, want 1", unshardedCalls.Load())
	}
}

func TestMergeSplitsAllocatesFreshSlices(t *testing.T) {
	l := labels.FromStrings("app", "x")
	cached := []Point{{T: 0, V: 1}}
	parts := []Matrix{
		{{Labels: l, Points: cached}},
		{{Labels: l, Points: []Point{{T: 10, V: 2}}}},
	}
	out := mergeSplits(parts)
	if len(out) != 1 || len(out[0].Points) != 2 {
		t.Fatalf("merge shape: %v", out)
	}
	out[0].Points[0].V = 99
	if cached[0].V != 1 {
		t.Fatal("mergeSplits mutated a cached input slice")
	}
}

func TestEvalErrorPropagates(t *testing.T) {
	f := New(Config{SplitInterval: 100 * time.Nanosecond})
	boom := errors.New("boom")
	req := Request{Engine: "logql", Query: "q", Start: 0, End: 499, Step: 10,
		Eval: func(ctx context.Context, start, end int64, shard int) (Matrix, error) {
			if start >= 200 {
				return nil, boom
			}
			return Matrix{}, nil
		},
	}
	if _, err := f.QueryRange(context.Background(), req); !errors.Is(err, boom) {
		t.Fatalf("split error not propagated: %v", err)
	}
}
