package logql

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"shastamon/internal/frontend"
	"shastamon/internal/labels"
	"shastamon/internal/loki"
	"shastamon/internal/stats"
)

// statsCorpus pushes a corpus with known exact totals: streams × perStream
// lines, every line lineLen bytes.
func statsCorpus(t *testing.T, store *loki.Store, streams, perStream, lineLen int) (totalBytes, totalLines int64) {
	t.Helper()
	line := make([]byte, lineLen)
	for i := range line {
		line[i] = 'a' + byte(i%26)
	}
	for s := 0; s < streams; s++ {
		ls := labels.FromStrings("app", "stats", "host", fmt.Sprintf("nid%03d", s))
		entries := make([]loki.Entry, perStream)
		for i := range entries {
			entries[i] = loki.Entry{Timestamp: int64(i+1) * 1e6, Line: string(line)}
		}
		if err := store.Push([]loki.PushStream{{Labels: ls, Entries: entries}}); err != nil {
			t.Fatal(err)
		}
	}
	return int64(streams * perStream * lineLen), int64(streams * perStream)
}

// The tentpole exactness contract: N queries evaluated concurrently on
// one engine (worker shards interleaving on the shared stores) each
// report the exact byte/line/stream totals of the corpus — nothing lost,
// nothing double-counted, no cross-query bleed. Run under -race in CI.
func TestParallelQueryStatsExact(t *testing.T) {
	store := loki.NewStore(loki.DefaultLimits())
	const streams, perStream, lineLen = 6, 500, 100
	wantBytes, wantLines := statsCorpus(t, store, streams, perStream, lineLen)
	eng := NewEngine(store)
	eng.SetParallelism(4)

	const queries = 8
	var wg sync.WaitGroup
	snaps := make([]stats.Snapshot, queries)
	errs := make([]error, queries)
	for q := 0; q < queries; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			ctx, sc := stats.NewContext(context.Background())
			res, err := eng.QueryLogsContext(ctx, `{app="stats"}`, 0, 1<<62)
			if err == nil && len(res) != streams {
				err = fmt.Errorf("got %d streams, want %d", len(res), streams)
			}
			sc.Finish()
			snaps[q], errs[q] = sc.Snapshot(), err
		}(q)
	}
	wg.Wait()
	for q := 0; q < queries; q++ {
		if errs[q] != nil {
			t.Fatalf("query %d: %v", q, errs[q])
		}
		s := snaps[q]
		if s.Summary.TotalBytesProcessed != wantBytes {
			t.Fatalf("query %d: bytes = %d, want %d", q, s.Summary.TotalBytesProcessed, wantBytes)
		}
		if s.Summary.TotalLinesProcessed != wantLines {
			t.Fatalf("query %d: lines = %d, want %d", q, s.Summary.TotalLinesProcessed, wantLines)
		}
		if s.Summary.TotalEntriesReturned != wantLines {
			t.Fatalf("query %d: entries = %d, want %d", q, s.Summary.TotalEntriesReturned, wantLines)
		}
		if s.Store.StreamsSelected != streams {
			t.Fatalf("query %d: streams = %d, want %d", q, s.Store.StreamsSelected, streams)
		}
		if s.Store.ChunksOpened < streams {
			t.Fatalf("query %d: chunks = %d, want >= %d", q, s.Store.ChunksOpened, streams)
		}
	}
}

// Cache exactness: with small sealed blocks, the first pass misses and
// later passes hit; hits+misses always equals blocks visited, and the
// counts land in the per-query statistics.
func TestQueryStatsCacheCounts(t *testing.T) {
	lim := loki.DefaultLimits()
	lim.ChunkOptions.BlockSize = 256 // many sealed blocks
	store := loki.NewStore(lim)
	statsCorpus(t, store, 2, 400, 100)
	eng := NewEngine(store)

	run := func() stats.Snapshot {
		ctx, sc := stats.NewContext(context.Background())
		if _, err := eng.QueryLogsContext(ctx, `{app="stats"}`, 0, 1<<62); err != nil {
			t.Fatal(err)
		}
		sc.Finish()
		return sc.Snapshot()
	}
	first := run()
	if first.Store.BlocksDecompressed == 0 || first.Store.CacheMisses == 0 {
		t.Fatalf("first pass decompressed nothing: %+v", first.Store)
	}
	if first.Store.BlocksDecompressed != first.Store.CacheMisses {
		t.Fatalf("misses %d != decompressions %d", first.Store.CacheMisses, first.Store.BlocksDecompressed)
	}
	second := run()
	if second.Store.CacheHits != first.Store.CacheMisses {
		t.Fatalf("second pass hits = %d, want %d (all blocks cached)", second.Store.CacheHits, first.Store.CacheMisses)
	}
	if second.Store.CacheMisses != 0 || second.Store.BlocksDecompressed != 0 {
		t.Fatalf("second pass still decompressing: %+v", second.Store)
	}
}

// The HTTP envelope (Fig. 5/Fig. 8 path): the query API response carries
// a populated Loki-style statistics block and a Server-Timing header.
func TestHTTPStatisticsBlock(t *testing.T) {
	store := loki.NewStore(loki.DefaultLimits())
	wantBytes, wantLines := statsCorpus(t, store, 3, 200, 80)
	eng := NewEngine(store)

	rec := httptest.NewRecorder()
	eng.Handler().ServeHTTP(rec, httptest.NewRequest("GET",
		"/loki/api/v1/query_range?query=%7Bapp%3D%22stats%22%7D&start=0&end=4611686018427387904", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp struct {
		Data struct {
			Statistics stats.Snapshot `json:"statistics"`
		} `json:"data"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	st := resp.Data.Statistics
	if st.Summary.TotalBytesProcessed != wantBytes || st.Summary.TotalLinesProcessed != wantLines {
		t.Fatalf("statistics = %+v, want %d bytes / %d lines", st.Summary, wantBytes, wantLines)
	}
	if st.Summary.TotalTime <= 0 {
		t.Fatalf("no total time: %+v", st.Summary)
	}
	if h := rec.Header().Get("Server-Timing"); h == "" {
		t.Fatal("no Server-Timing header")
	}

	// Metric form (the Fig. 5 count_over_time shape) carries stats too.
	rec = httptest.NewRecorder()
	eng.Handler().ServeHTTP(rec, httptest.NewRequest("GET",
		"/loki/api/v1/query_range?query=sum(count_over_time(%7Bapp%3D%22stats%22%7D%5B60m%5D))&start=0&end=3600000000000&step=1800", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Data.Statistics.Summary.TotalLinesProcessed == 0 || resp.Data.Statistics.Summary.Splits == 0 {
		t.Fatalf("metric statistics empty: %+v", resp.Data.Statistics.Summary)
	}
}

// blockingStage passes lines through but delays each one until released,
// simulating an expensive pipeline so a kill can land mid-evaluation.
type blockingStage struct {
	delay time.Duration
}

func (b *blockingStage) Process(line string, lbls labels.Labels) (string, labels.Labels, bool) {
	time.Sleep(b.delay)
	return line, lbls, true
}
func (b *blockingStage) String() string { return "<blocking>" }

// Kill promptness: a kill lands while the pipeline is grinding through
// entries, and the query returns ErrKilled long before it would have
// finished on its own.
func TestKillCancelsMidEvaluation(t *testing.T) {
	store := loki.NewStore(loki.DefaultLimits())
	statsCorpus(t, store, 1, 4096, 50) // 4096 slow entries ≈ 4s un-killed
	eng := NewEngine(store)
	tr := stats.NewTracker(nil, stats.Config{})
	eng.SetTracker(tr)

	expr := &LogExpr{
		Selector: mustParseSelector(t, `{app="stats"}`),
		Stages:   []Stage{&blockingStage{delay: time.Millisecond}},
	}
	ctx, finish := tr.Start(context.Background(), "logql", expr.String())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := eng.SelectLogsContext(ctx, expr, 0, 1<<62)
		done <- err
	}()
	// Kill as soon as the query shows up live.
	for {
		if act := tr.Active(); len(act) == 1 {
			if !tr.Kill(act[0].ID) {
				t.Fatal("kill refused")
			}
			break
		}
		time.Sleep(time.Millisecond)
	}
	var err error
	select {
	case err = <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("killed query did not return")
	}
	finish(err)
	if !errors.Is(err, stats.ErrKilled) {
		t.Fatalf("err = %v, want ErrKilled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("kill took %v to stop the scan", elapsed)
	}
}

// A range evaluation stops at the first failing step and sizes nothing
// by the step count: the count comes from a client's step parameter
// (3e11 here, a 5-minute window at 1 ns), so a dead query must cost one
// step, with and without a frontend in the path.
func TestRangeStopsAtFirstFailedStep(t *testing.T) {
	store := loki.NewStore(loki.DefaultLimits())
	statsCorpus(t, store, 2, 8, 50)
	expr, err := ParseMetricExpr(`count_over_time({app="stats"}[1m])`)
	if err != nil {
		t.Fatal(err)
	}
	mono, split := NewEngine(store), NewEngine(store)
	split.SetFrontend(frontend.New(frontend.Config{}))
	for name, eng := range map[string]*Engine{"mono": mono, "frontend": split} {
		for _, cause := range []error{stats.ErrKilled, stats.ErrQueryTimeout, context.Canceled} {
			ctx, cancel := context.WithCancelCause(context.Background())
			cancel(cause)
			done := make(chan error, 1)
			go func() {
				_, err := eng.RangeContext(ctx, expr, 0, int64(5*time.Minute), time.Nanosecond)
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, cause) {
					t.Errorf("%s: err = %v, want %v", name, err, cause)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: a query dead on arrival (%v) kept evaluating steps", name, cause)
			}
		}
	}
}

func mustParseSelector(t *testing.T, s string) labels.Selector {
	t.Helper()
	expr, err := ParseExpr(s)
	if err != nil {
		t.Fatal(err)
	}
	return expr.(*LogExpr).Selector
}
