package logql

import (
	"fmt"
	"math"
	"testing"
	"time"

	"shastamon/internal/frontend"
	"shastamon/internal/labels"
	"shastamon/internal/loki"
)

// NaN follows Prometheus: min/max replace a NaN accumulator with the next
// number, so an unwrapped NaN changes nothing unless every value is NaN,
// whatever position it arrives in.
func TestNaNMinMaxOrderIndependent(t *testing.T) {
	// The last case is all NaN.
	for _, vals := range [][]string{{"NaN", "1", "2"}, {"1", "NaN", "2"}, {"1", "2", "NaN"}, {"NaN", "NaN"}} {
		s := newTestStore(t)
		for i, v := range vals {
			mustPush(t, s, labels.FromStrings("app", "g"), loki.Entry{Timestamp: int64(i+1) * 1e9, Line: "v=" + v})
			// The same values across streams, for the vector aggregations.
			mustPush(t, s, labels.FromStrings("app", "h", "n", fmt.Sprint(i)), loki.Entry{Timestamp: 1e9, Line: "v=" + v})
		}
		allNaN := len(vals) == 2
		eng := NewEngine(s)
		for q, want := range map[string]float64{
			`min_over_time({app="g"} | logfmt | unwrap v [1m])`:      1,
			`max_over_time({app="g"} | logfmt | unwrap v [1m])`:      2,
			`min(max_over_time({app="h"} | logfmt | unwrap v [1m]))`: 1,
			`max(max_over_time({app="h"} | logfmt | unwrap v [1m]))`: 2,
		} {
			vec, err := eng.QueryInstant(q, int64(time.Minute))
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if allNaN {
				want = math.NaN()
			}
			if len(vec) != 1 || !sameFloat(vec[0].V, want) {
				t.Errorf("%s over %v = %+v, want %v", q, vals, vec, want)
			}
		}
	}
}

// topk/bottomk rank NaN below every number.
func TestNaNTopK(t *testing.T) {
	s := newTestStore(t)
	for i, v := range []string{"1", "NaN", "2"} {
		mustPush(t, s, labels.FromStrings("n", fmt.Sprint(i)), loki.Entry{Timestamp: 1e9, Line: "v=" + v})
	}
	eng := NewEngine(s)
	for q, want := range map[string][]float64{
		`topk(1, max_over_time({} | logfmt | unwrap v [1m]))`:    {2},
		`topk(2, max_over_time({} | logfmt | unwrap v [1m]))`:    {2, 1},
		`bottomk(1, max_over_time({} | logfmt | unwrap v [1m]))`: {1},
		`topk(3, max_over_time({} | logfmt | unwrap v [1m]))`:    {2, 1, math.NaN()},
	} {
		vec, err := eng.QueryInstant(q, int64(time.Minute))
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		ok := len(vec) == len(want)
		for i := 0; ok && i < len(vec); i++ {
			ok = sameFloat(vec[i].V, want[i])
		}
		if !ok {
			t.Errorf("%s = %+v, want values %v", q, vec, want)
		}
	}
}

// A NaN in the data must not break the exact shard merge: fan-out and the
// monolithic pass both answer 7, the largest number.
func TestNaNShardMergeExact(t *testing.T) {
	limits := loki.DefaultLimits()
	limits.Shards = 4
	s := loki.NewStore(limits)
	mustPush(t, s, labels.FromStrings("app", "g", "s", "0"),
		loki.Entry{Timestamp: 1e9, Line: "v=NaN"}, loki.Entry{Timestamp: 2e9, Line: "v=0"})
	for i := 1; i < 8; i++ {
		mustPush(t, s, labels.FromStrings("app", "g", "s", fmt.Sprint(i)), loki.Entry{Timestamp: 1e9, Line: fmt.Sprintf("v=%d", i)})
	}
	mono := NewEngine(s)
	fanned := NewEngine(s)
	fanned.SetFrontend(frontend.New(frontend.Config{Now: func() time.Time { return farFuture }}))
	const q = `max(max_over_time({app="g"} | logfmt | unwrap v [1m]))`
	if op, ok := shardMergeOp(mustMetric(t, q)); !ok || op != "max" {
		t.Fatalf("%s is not fanned out (%q, %v)", q, op, ok)
	}
	for name, eng := range map[string]*Engine{"monolithic": mono, "fan-out": fanned} {
		m, err := eng.QueryRange(q, int64(time.Minute), int64(2*time.Minute), time.Minute)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(m) != 1 || len(m[0].Points) != 1 || m[0].Points[0].V != 7 {
			t.Errorf("%s: %+v, want one point of 7", name, m)
		}
	}
}

func sameFloat(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

func mustMetric(t *testing.T, q string) MetricExpr {
	t.Helper()
	expr, err := ParseMetricExpr(q)
	if err != nil {
		t.Fatal(err)
	}
	return expr
}
