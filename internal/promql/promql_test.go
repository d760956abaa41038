package promql

import (
	"context"
	"errors"
	"testing"
	"time"

	"shastamon/internal/frontend"
	"shastamon/internal/labels"
	"shastamon/internal/stats"
	"shastamon/internal/tsdb"
)

func setupDB(t testing.TB) (*tsdb.DB, *Engine) {
	t.Helper()
	db := tsdb.New()
	return db, NewEngine(db)
}

func app(t testing.TB, db *tsdb.DB, name string, kv []string, ts int64, v float64) {
	t.Helper()
	if err := db.AppendMetric(name, labels.FromStrings(kv...), ts, v); err != nil {
		t.Fatal(err)
	}
}

func TestParseRenders(t *testing.T) {
	for _, q := range []string{
		`up`,
		`up{job="node"}`,
		`rate(node_cpu_seconds_total{mode="idle"}[5m])`,
		`sum(rate(http_requests_total[1m])) by (code)`,
		`node_temp_celsius > 75`,
		`absent(up{job="node"})`,
		`sum(up) by (job) * 100`,
	} {
		e, err := Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if _, err := Parse(e.String()); err != nil {
			t.Fatalf("reparse %q: %v", e.String(), err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, q := range []string{
		``,
		`{}`,
		`rate(up)`,     // missing range
		`rate(up[xx])`, // bad duration
		`sum(`,         // unbalanced
		`up{job=}`,     // bad matcher
		`up > `,        // missing rhs
		`5 > 4`,        // scalar comparison
		`up + down`,    // vector-vector unsupported
		`up{job="n"} extra`,
	} {
		e, err := Parse(q)
		if err != nil {
			continue
		}
		// some forms only fail at eval time
		_, eng := setupDB(t)
		if _, err := eng.Instant(e, 1000); err == nil {
			t.Errorf("no error for %q", q)
		}
	}
}

func TestInstantSelector(t *testing.T) {
	db, eng := setupDB(t)
	app(t, db, "up", []string{"job", "node"}, 1000, 1)
	app(t, db, "up", []string{"job", "kafka"}, 1000, 0)
	vec, err := eng.Query(`up`, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != 2 {
		t.Fatalf("%+v", vec)
	}
	vec, err = eng.Query(`up{job="kafka"}`, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != 1 || vec[0].V != 0 {
		t.Fatalf("%+v", vec)
	}
}

// TestStringEscapes pins the string-escape rule PromQL shares with
// LogQL: \n and \t decode, and an unknown escape keeps its backslash,
// so a regexp's escaped dot still matches only a dot.
func TestStringEscapes(t *testing.T) {
	db, eng := setupDB(t)
	app(t, db, "up", []string{"a", "xzy"}, 1000, 1)
	app(t, db, "up", []string{"a", "x.y"}, 1000, 2)
	vec, err := eng.Query(`up{a=~"x\.y"}`, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != 1 || vec[0].Labels.Get("a") != "x.y" {
		t.Errorf(`up{a=~"x\.y"} = %+v, want only a="x.y"`, vec)
	}
	e, err := Parse(`up{a="x\ny"}`)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.String(); got != `up{a="x\ny"}` {
		t.Fatalf("String() = %s", got)
	}
	app(t, db, "up", []string{"a", "x\ny"}, 1000, 3)
	if vec, err = eng.Query(`up{a="x\ny"}`, 2000); err != nil || len(vec) != 1 || vec[0].V != 3 {
		t.Fatalf(`up{a="x\ny"} = %+v, %v; want the series whose label holds a newline`, vec, err)
	}
}

func TestStaleness(t *testing.T) {
	db, eng := setupDB(t)
	app(t, db, "up", nil, 1000, 1)
	vec, _ := eng.Query(`up`, 1000+DefaultLookback.Milliseconds()+1)
	if len(vec) != 0 {
		t.Fatalf("stale sample returned: %+v", vec)
	}
}

func TestRateCounter(t *testing.T) {
	db, eng := setupDB(t)
	// 1 unit per second for 60s.
	for i := 0; i <= 60; i++ {
		app(t, db, "reqs_total", nil, int64(i*1000), float64(i))
	}
	vec, err := eng.Query(`rate(reqs_total[60s])`, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != 1 || vec[0].V < 0.99 || vec[0].V > 1.01 {
		t.Fatalf("rate: %+v", vec)
	}
	if vec[0].Labels.Has(tsdb.MetricNameLabel) {
		t.Fatal("__name__ kept after rate")
	}
}

func TestRateCounterReset(t *testing.T) {
	db, eng := setupDB(t)
	vals := []float64{10, 20, 5, 15} // reset between 20 and 5
	for i, v := range vals {
		app(t, db, "c", nil, int64(i*1000), v)
	}
	vec, err := eng.Query(`increase(c[10s])`, 3000)
	if err != nil {
		t.Fatal(err)
	}
	// increase = (20-10) + 5 (reset) + (15-5) = 25
	if len(vec) != 1 || vec[0].V != 25 {
		t.Fatalf("increase: %+v", vec)
	}
}

func TestOverTimeFunctions(t *testing.T) {
	db, eng := setupDB(t)
	for i, v := range []float64{10, 30, 20} {
		app(t, db, "g", nil, int64((i+1)*1000), v)
	}
	cases := map[string]float64{
		`avg_over_time(g[10s])`:   20,
		`sum_over_time(g[10s])`:   60,
		`min_over_time(g[10s])`:   10,
		`max_over_time(g[10s])`:   30,
		`count_over_time(g[10s])`: 3,
		`last_over_time(g[10s])`:  20,
		`delta(g[10s])`:           10,
		`idelta(g[10s])`:          -10,
	}
	for q, want := range cases {
		vec, err := eng.Query(q, 4000)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(vec) != 1 || vec[0].V != want {
			t.Fatalf("%s: got %+v want %g", q, vec, want)
		}
	}
}

func TestAbsent(t *testing.T) {
	db, eng := setupDB(t)
	vec, err := eng.Query(`absent(up{job="ghost"})`, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != 1 || vec[0].V != 1 || vec[0].Labels.Get("job") != "ghost" {
		t.Fatalf("%+v", vec)
	}
	app(t, db, "up", []string{"job", "ghost"}, 1000, 1)
	vec, _ = eng.Query(`absent(up{job="ghost"})`, 1500)
	if len(vec) != 0 {
		t.Fatalf("%+v", vec)
	}
}

func TestAggregations(t *testing.T) {
	db, eng := setupDB(t)
	app(t, db, "temp", []string{"cab", "x1000", "zone", "front"}, 1000, 20)
	app(t, db, "temp", []string{"cab", "x1000", "zone", "rear"}, 1000, 30)
	app(t, db, "temp", []string{"cab", "x1001", "zone", "front"}, 1000, 40)
	cases := map[string]struct {
		n    int
		want float64
	}{
		`sum(temp)`:                {1, 90},
		`avg(temp)`:                {1, 30},
		`min(temp)`:                {1, 20},
		`max(temp)`:                {1, 40},
		`count(temp)`:              {1, 3},
		`sum(temp) by (cab)`:       {2, 50},
		`sum by (cab) (temp)`:      {2, 50},
		`max(temp) without (zone)`: {2, 30},
	}
	for q, c := range cases {
		vec, err := eng.Query(q, 2000)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(vec) != c.n {
			t.Fatalf("%s: %+v", q, vec)
		}
		if vec[0].V != c.want {
			t.Fatalf("%s: got %g want %g", q, vec[0].V, c.want)
		}
	}
}

func TestThresholdComparison(t *testing.T) {
	db, eng := setupDB(t)
	app(t, db, "temp", []string{"cab", "hot"}, 1000, 90)
	app(t, db, "temp", []string{"cab", "cool"}, 1000, 20)
	vec, err := eng.Query(`temp > 75`, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != 1 || vec[0].Labels.Get("cab") != "hot" {
		t.Fatalf("%+v", vec)
	}
	// up == 0 pattern
	app(t, db, "up", []string{"job", "dead"}, 1000, 0)
	app(t, db, "up", []string{"job", "alive"}, 1000, 1)
	vec, _ = eng.Query(`up == 0`, 2000)
	if len(vec) != 1 || vec[0].Labels.Get("job") != "dead" {
		t.Fatalf("%+v", vec)
	}
}

func TestArithmetic(t *testing.T) {
	db, eng := setupDB(t)
	app(t, db, "mem_used", nil, 1000, 50)
	vec, err := eng.Query(`mem_used * 2 + 10`, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != 1 || vec[0].V != 110 {
		t.Fatalf("%+v", vec)
	}
	vec, err = eng.Query(`100 - mem_used`, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if vec[0].V != 50 {
		t.Fatalf("%+v", vec)
	}
	// scalar cmp vector
	vec, err = eng.Query(`100 > mem_used`, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != 1 || vec[0].V != 50 {
		t.Fatalf("%+v", vec)
	}
}

func TestRangeQuery(t *testing.T) {
	db, eng := setupDB(t)
	for i := 0; i <= 10; i++ {
		app(t, db, "g", nil, int64(i*1000), float64(i))
	}
	m, err := eng.QueryRange(`g`, 0, 10_000, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 1 || len(m[0].Points) != 6 {
		t.Fatalf("%+v", m)
	}
	if m[0].Points[5].V != 10 {
		t.Fatalf("%+v", m[0].Points)
	}
}

// Every node type — the bare selector included, which reads one sample
// per series and has no loop to check in — returns the context's cause
// once the context is done, so a range evaluation dead on arrival stops
// at its first step (8.64e7 of them here: a day at the 1 ms minimum),
// with and without a frontend in the path.
func TestDeadContextStopsEveryNode(t *testing.T) {
	db, mono := setupDB(t)
	app(t, db, "up", []string{"job", "node"}, 1000, 1)
	split := NewEngine(db)
	split.SetFrontend(frontend.New(frontend.Config{}))
	for _, q := range []string{`up`, `42`, `absent(up)`, `max_over_time(up[5m])`, `sum(up)`, `up == 0`, `up * 2`} {
		expr, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, cause := range []error{stats.ErrKilled, stats.ErrQueryTimeout, context.Canceled} {
			ctx, cancel := context.WithCancelCause(context.Background())
			cancel(cause)
			if _, err := mono.InstantContext(ctx, expr, 2000); !errors.Is(err, cause) {
				t.Errorf("instant %s: err = %v, want %v", q, err, cause)
			}
			for name, eng := range map[string]*Engine{"mono": mono, "frontend": split} {
				done := make(chan error, 1)
				go func() {
					_, err := eng.RangeContext(ctx, expr, 0, (24 * time.Hour).Milliseconds(), time.Millisecond)
					done <- err
				}()
				select {
				case err := <-done:
					if !errors.Is(err, cause) {
						t.Errorf("range %s (%s): err = %v, want %v", q, name, err, cause)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("range %s (%s): a query dead on arrival (%v) kept evaluating steps", q, name, cause)
				}
			}
		}
	}
}

func BenchmarkInstantThreshold(b *testing.B) {
	db := tsdb.New()
	for i := 0; i < 200; i++ {
		_ = db.AppendMetric("node_temp_celsius", labels.FromStrings("xname", labelName(i)), 1000, float64(i%100))
	}
	eng := NewEngine(db)
	expr, err := Parse(`node_temp_celsius > 75`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Instant(expr, 2000); err != nil {
			b.Fatal(err)
		}
	}
}

func labelName(i int) string {
	return "x" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
}
