package logql

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"shastamon/internal/frontend"
	"shastamon/internal/labels"
	"shastamon/internal/loki"
	"shastamon/internal/stats"
)

// goldenStore builds a sharded store with a corpus wide enough that time
// splits, shard fan-out and the head window all carve it differently:
// eight apps on three clusters, entries every few seconds over two hours,
// with a logfmt value field for unwrap queries.
func goldenStore(t *testing.T, shards int) *loki.Store {
	t.Helper()
	limits := loki.DefaultLimits()
	limits.Shards = shards
	s := loki.NewStore(limits)
	for app := 0; app < 8; app++ {
		ls := labels.FromStrings(
			"app", fmt.Sprintf("a%d", app),
			"cluster", fmt.Sprintf("c%d", app%3),
		)
		var entries []loki.Entry
		for ts := int64(0); ts < 7200; ts += int64(3 + app) {
			entries = append(entries, loki.Entry{
				Timestamp: ts * 1e9,
				Line:      fmt.Sprintf("level=info v=%d msg=tick", (ts+int64(app)*7)%97),
			})
		}
		if err := s.Push([]loki.PushStream{{Labels: ls, Entries: entries}}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// farFuture keeps every split comfortably older than the freshness
// cutoff, so caching decisions never depend on the test's wall clock.
var farFuture = time.Unix(100_000, 0)

func matrixString(m Matrix) string { return fmt.Sprintf("%+v", m) }

// goldenQueries covers the shard-merge whitelist (sum/max/min, grouped
// and ungrouped) and expressions that must fall back to unsharded
// evaluation (rate's quotient, avg).
var goldenQueries = []string{
	`count_over_time({cluster="c0"}[5m])`,
	`sum(count_over_time({}[5m]))`,
	`bytes_over_time({app="a3"}[10m])`,
	`sum(bytes_over_time({}[2m]))`,
	`max_over_time({cluster="c1"} | logfmt | unwrap v [5m])`,
	`min_over_time({cluster="c1"} | logfmt | unwrap v [5m])`,
	`max(max_over_time({} | logfmt | unwrap v [7m]))`,
	`sum_over_time({cluster="c1"} | logfmt | unwrap v [5m])`,
	`sum(sum_over_time({} | logfmt | unwrap v [5m]))`,
	`rate({cluster="c0"}[5m])`,
	`avg(count_over_time({}[5m]))`,
	`sum(count_over_time({}[5m])) > 40`,
}

// goldenWindows exercises the alignment edge cases: a range that is not
// divisible by the step, an unaligned start, a window smaller than one
// split, and an instant-like single-step range.
var goldenWindows = []struct {
	name             string
	start, end, step int64 // seconds
}{
	{"aligned-hour", 0, 3600, 60},
	{"range-not-divisible-by-step", 0, 3601, 55},
	{"unaligned-start", 37, 3598, 55},
	{"sub-split-window", 130, 250, 40},
	{"single-instant", 300, 300, 60},
}

// TestFrontendGoldenEquality proves split + sharded + cached evaluation
// is byte-identical to the monolithic pass, cold and warm, and that a
// caller scribbling over a returned matrix cannot reach the cache.
func TestFrontendGoldenEquality(t *testing.T) {
	store := goldenStore(t, 4)
	mono := NewEngine(store)
	split := NewEngine(store)
	split.SetFrontend(frontend.New(frontend.Config{
		SplitInterval: 10 * time.Minute,
		Now:           func() time.Time { return farFuture },
	}))
	for _, q := range goldenQueries {
		for _, w := range goldenWindows {
			name := fmt.Sprintf("%s/%s", q, w.name)
			want, err := mono.QueryRange(q, w.start*1e9, w.end*1e9, time.Duration(w.step)*time.Second)
			if err != nil {
				t.Fatalf("%s: monolithic: %v", name, err)
			}
			cold, err := split.QueryRange(q, w.start*1e9, w.end*1e9, time.Duration(w.step)*time.Second)
			if err != nil {
				t.Fatalf("%s: cold: %v", name, err)
			}
			if matrixString(want) != matrixString(cold) {
				t.Errorf("%s: cold result differs\nmono:  %s\nsplit: %s", name, matrixString(want), matrixString(cold))
				continue
			}
			ctx, sc := stats.NewContext(context.Background())
			warm, err := split.QueryRangeContext(ctx, q, w.start*1e9, w.end*1e9, time.Duration(w.step)*time.Second)
			if err != nil {
				t.Fatalf("%s: warm: %v", name, err)
			}
			if matrixString(want) != matrixString(warm) {
				t.Errorf("%s: warm result differs\nmono:  %s\nsplit: %s", name, matrixString(want), matrixString(warm))
			}
			if fe := sc.Snapshot().Frontend; fe.ResultCacheHits == 0 {
				t.Errorf("%s: warm run hit the cache 0 times: %+v", name, fe)
			}
			// Engines and frontend share one Matrix type and nothing copies
			// on the way out except mergeSplits: overwrite what was returned
			// and the next hit must still serve the monolithic answer.
			for _, m := range []Matrix{cold, warm} {
				for _, s := range m {
					for i := range s.Points {
						s.Points[i] = Point{T: -1, V: -1}
					}
				}
			}
			again, err := split.QueryRange(q, w.start*1e9, w.end*1e9, time.Duration(w.step)*time.Second)
			if err != nil {
				t.Fatalf("%s: after overwrite: %v", name, err)
			}
			if matrixString(want) != matrixString(again) {
				t.Errorf("%s: overwriting a returned matrix changed the cached result\nmono:  %s\nsplit: %s", name, matrixString(want), matrixString(again))
			}
		}
	}
}

// TestShardMergeWhitelist pins the fan-out decision per operation: the
// exact-merge set (including sum_over_time) must shard, and the
// order-sensitive quotients and averages must not.
func TestShardMergeWhitelist(t *testing.T) {
	cases := map[string]string{
		`sum_over_time({cluster="c1"} | logfmt | unwrap v [5m])`: "sum",
		`sum(sum_over_time({} | logfmt | unwrap v [5m]))`:        "sum",
		`count_over_time({cluster="c0"}[5m])`:                    "sum",
		`max(max_over_time({} | logfmt | unwrap v [7m]))`:        "max",
		`avg_over_time({cluster="c1"} | logfmt | unwrap v [5m])`: "",
		`avg(sum_over_time({} | logfmt | unwrap v [5m]))`:        "",
		`rate({cluster="c0"}[5m])`:                               "",
	}
	for q, wantOp := range cases {
		expr, err := ParseMetricExpr(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		op, ok := shardMergeOp(expr)
		if op != wantOp || ok != (wantOp != "") {
			t.Errorf("shardMergeOp(%s) = (%q, %v), want %q", q, op, ok, wantOp)
		}
	}
}

// TestFrontendGoldenMutableHead pins the clock so the freshness cutoff
// lands mid-range: head splits must re-evaluate (never cached) and the
// result must still match the monolithic pass exactly.
func TestFrontendGoldenMutableHead(t *testing.T) {
	store := goldenStore(t, 4)
	mono := NewEngine(store)
	split := NewEngine(store)
	f := frontend.New(frontend.Config{
		SplitInterval:  10 * time.Minute,
		CacheFreshness: time.Minute,
		// Cutoff = 1800s: the second half of the hour window is head.
		Now: func() time.Time { return time.Unix(1860, 0) },
	})
	split.SetFrontend(f)
	const q = `sum(count_over_time({}[5m]))`
	want, err := mono.QueryRange(q, 0, 3600e9, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := split.QueryRange(q, 0, 3600e9, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if matrixString(want) != matrixString(got) {
			t.Fatalf("run %d differs from monolithic\nmono:  %s\nsplit: %s", i, matrixString(want), matrixString(got))
		}
	}
	// Only the pre-cutoff splits may be resident.
	if st := f.CacheStats(); st.Entries == 0 || st.Entries > 3 {
		t.Fatalf("expected only the pre-head splits cached, got %+v", st)
	}
}

// TestFrontendGoldenRetentionEviction deletes history mid-flight: after
// retention runs, the frontend must serve exactly what a monolithic pass
// over the mutated store serves — never resurrect cached pre-deletion
// data.
func TestFrontendGoldenRetentionEviction(t *testing.T) {
	store := goldenStore(t, 4)
	mono := NewEngine(store)
	split := NewEngine(store)
	f := frontend.New(frontend.Config{
		SplitInterval: 10 * time.Minute,
		Now:           func() time.Time { return farFuture },
	})
	split.SetFrontend(f)
	const q = `sum(count_over_time({}[5m]))`
	// Warm the cache over the full window.
	if _, err := split.QueryRange(q, 0, 3600e9, time.Minute); err != nil {
		t.Fatal(err)
	}
	// Retention deletes the first half hour, then invalidates the cache —
	// the same order omni's EnforceRetention runs them in.
	cutoff := time.Unix(1800, 0)
	store.DeleteBefore(cutoff.UnixNano())
	if dropped := f.InvalidateBefore(cutoff); dropped == 0 {
		t.Fatal("retention invalidated no cached splits")
	}
	want, err := mono.QueryRange(q, 0, 3600e9, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	got, err := split.QueryRange(q, 0, 3600e9, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if matrixString(want) != matrixString(got) {
		t.Fatalf("post-retention result resurrects cached data\nmono:  %s\nsplit: %s", matrixString(want), matrixString(got))
	}
}

// TestFrontendConcurrentRefreshSoak hammers one frontend with sliding
// dashboard-style refreshes from many goroutines — the -race soak. Every
// response is checked against a monolithic evaluation of the same window.
func TestFrontendConcurrentRefreshSoak(t *testing.T) {
	store := goldenStore(t, 4)
	mono := NewEngine(store)
	split := NewEngine(store)
	f := frontend.New(frontend.Config{
		SplitInterval: 5 * time.Minute,
		CacheBytes:    16 << 10, // small enough to force evictions mid-soak
		Now:           func() time.Time { return farFuture },
	})
	split.SetFrontend(f)
	queries := []string{
		`sum(count_over_time({}[5m]))`,
		`count_over_time({cluster="c0"}[5m])`,
		`max_over_time({cluster="c1"} | logfmt | unwrap v [5m])`,
	}
	const refreshers, iters = 8, 12
	var wg sync.WaitGroup
	errs := make(chan error, refreshers)
	for g := 0; g < refreshers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q := queries[(g+i)%len(queries)]
				// The window slides forward by a step each refresh, the
				// dashboard pattern the extension-of-range reuse targets.
				start := int64(g*30+i*60) * 1e9
				end := start + 1800e9
				want, err := mono.QueryRange(q, start, end, time.Minute)
				if err != nil {
					errs <- err
					return
				}
				got, err := split.QueryRange(q, start, end, time.Minute)
				if err != nil {
					errs <- err
					return
				}
				if matrixString(want) != matrixString(got) {
					errs <- fmt.Errorf("refresher %d iter %d (%s): split result differs", g, i, q)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
