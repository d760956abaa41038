package tsdb

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"shastamon/internal/labels"
)

func metric(name string, kv ...string) labels.Labels {
	return labels.FromStrings(kv...).With(MetricNameLabel, name)
}

func TestAppendSelect(t *testing.T) {
	db := New()
	ls := metric("node_temp_celsius", "xname", "x1000c0s0b0n0")
	for i := 0; i < 10; i++ {
		if err := db.Append(ls, int64(i*1000), float64(20+i)); err != nil {
			t.Fatal(err)
		}
	}
	got := db.Select(nil, 2000, 5000)
	if len(got) != 1 || len(got[0].Samples) != 4 {
		t.Fatalf("%+v", got)
	}
	if got[0].Samples[0].V != 22 {
		t.Fatalf("%+v", got[0].Samples)
	}
}

func TestAppendRequiresName(t *testing.T) {
	db := New()
	if err := db.Append(labels.FromStrings("a", "b"), 1, 1); err == nil {
		t.Fatal("append without __name__ accepted")
	}
}

func TestAppendMetric(t *testing.T) {
	db := New()
	if err := db.AppendMetric("up", labels.FromStrings("job", "node"), 1000, 1); err != nil {
		t.Fatal(err)
	}
	sel := []*labels.Matcher{labels.MustMatcher(labels.MatchEqual, MetricNameLabel, "up")}
	if got := db.Select(sel, 0, 2000); len(got) != 1 {
		t.Fatalf("%+v", got)
	}
}

func TestOutOfOrderDropped(t *testing.T) {
	db := New()
	ls := metric("m")
	_ = db.Append(ls, 100, 1)
	if err := db.Append(ls, 50, 2); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("err = %v", err)
	}
	if db.Stats().Dropped != 1 {
		t.Fatal("dropped counter")
	}
}

func TestDuplicateTimestampOverwrites(t *testing.T) {
	db := New()
	ls := metric("m")
	_ = db.Append(ls, 100, 1)
	_ = db.Append(ls, 100, 9)
	got := db.Select(nil, 0, 200)
	if len(got[0].Samples) != 1 || got[0].Samples[0].V != 9 {
		t.Fatalf("%+v", got[0].Samples)
	}
}

func TestLatestBefore(t *testing.T) {
	db := New()
	ls := metric("m")
	_ = db.Append(ls, 1000, 1)
	_ = db.Append(ls, 2000, 2)
	got := db.LatestBefore(nil, 2500, 5000)
	if len(got) != 1 || got[0].Samples[0].V != 2 {
		t.Fatalf("%+v", got)
	}
	// Outside the lookback window nothing is returned.
	got = db.LatestBefore(nil, 10000, 1000)
	if len(got) != 0 {
		t.Fatalf("stale sample returned: %+v", got)
	}
	// Before any sample: nothing.
	got = db.LatestBefore(nil, 500, 5000)
	if len(got) != 0 {
		t.Fatalf("%+v", got)
	}
}

func TestSelectByMatcher(t *testing.T) {
	db := New()
	for i := 0; i < 4; i++ {
		_ = db.Append(metric("m", "node", fmt.Sprintf("n%d", i)), 1000, float64(i))
	}
	sel := []*labels.Matcher{labels.MustMatcher(labels.MatchRegexp, "node", "n[01]")}
	if got := db.Select(sel, 0, 2000); len(got) != 2 {
		t.Fatalf("%+v", got)
	}
}

func TestDeleteBefore(t *testing.T) {
	db := New()
	old := metric("m", "age", "old")
	newer := metric("m", "age", "new")
	_ = db.Append(old, 1000, 1)
	_ = db.Append(newer, 5000, 1)
	_ = db.Append(newer, 9000, 2)
	dropped := db.DeleteBefore(5000)
	if dropped != 1 {
		t.Fatalf("dropped = %d", dropped)
	}
	if got := db.Series(nil); len(got) != 1 {
		t.Fatalf("series: %v", got)
	}
	if db.Stats().Series != 1 {
		t.Fatalf("stats: %+v", db.Stats())
	}
}

func TestLabelValues(t *testing.T) {
	db := New()
	_ = db.Append(metric("m", "zone", "a"), 1, 1)
	_ = db.Append(metric("m", "zone", "b"), 1, 1)
	if got := db.LabelValues("zone"); len(got) != 2 || got[0] != "a" {
		t.Fatalf("%v", got)
	}
}

func TestConcurrentAppend(t *testing.T) {
	db := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ls := metric("m", "g", fmt.Sprintf("%d", g))
			for i := 0; i < 1000; i++ {
				_ = db.Append(ls, int64(i), float64(i))
			}
		}(g)
	}
	wg.Wait()
	st := db.Stats()
	if st.Series != 8 || st.Samples != 8000 {
		t.Fatalf("%+v", st)
	}
}

// Property: Select returns exactly the samples with mint <= T <= maxt in
// order.
func TestPropertySelectWindow(t *testing.T) {
	f := func(lo, hi uint16) bool {
		db := New()
		ls := metric("m")
		for i := 0; i < 500; i++ {
			_ = db.Append(ls, int64(i), float64(i))
		}
		mint, maxt := int64(lo%500), int64(hi%500)
		if mint > maxt {
			mint, maxt = maxt, mint
		}
		got := db.Select(nil, mint, maxt)
		if len(got) != 1 {
			return false
		}
		ss := got[0].Samples
		if int64(len(ss)) != maxt-mint+1 {
			return false
		}
		return ss[0].T == mint && ss[len(ss)-1].T == maxt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAppend(b *testing.B) {
	db := New()
	ls := metric("node_cpu_seconds_total", "cpu", "0", "mode", "idle", "xname", "x1000c0s0b0n0")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := db.Append(ls, int64(i), float64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectRecent(b *testing.B) {
	db := New()
	for s := 0; s < 100; s++ {
		ls := metric("m", "node", fmt.Sprintf("n%03d", s))
		for i := 0; i < 1000; i++ {
			_ = db.Append(ls, int64(i*1000), float64(i))
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		got := db.Select(nil, 900_000, 1_000_000)
		if len(got) != 100 {
			b.Fatal("bad select")
		}
	}
}
