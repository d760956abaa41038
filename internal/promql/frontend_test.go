package promql

import (
	"fmt"
	"testing"
	"time"

	"shastamon/internal/frontend"
	"shastamon/internal/labels"
	"shastamon/internal/tsdb"
)

// TestFrontendGoldenEquality proves split + cached PromQL range
// evaluation is byte-identical to the monolithic pass across alignment
// edge cases, also after the caller overwrote earlier results — the Fig8
// counterpart of the LogQL golden suite.
func TestFrontendGoldenEquality(t *testing.T) {
	db := tsdb.New()
	for node := 0; node < 6; node++ {
		ls := labels.FromStrings("xname", fmt.Sprintf("x%d", node))
		for ts := int64(0); ts < 7200_000; ts += 15_000 {
			v := float64((ts / 15_000) * int64(node+1)) // monotone counter, per-node slope
			if err := db.AppendMetric("node_net_bytes_total", ls, ts, v); err != nil {
				t.Fatal(err)
			}
			if err := db.AppendMetric("node_temp_celsius", ls, ts, float64((ts/1000+int64(node)*37)%90)); err != nil {
				t.Fatal(err)
			}
		}
	}
	mono := NewEngine(db)
	split := NewEngine(db)
	split.SetFrontend(frontend.New(frontend.Config{
		SplitInterval: 10 * time.Minute,
		Now:           func() time.Time { return time.Unix(100_000, 0) },
	}))
	queries := []string{
		`node_temp_celsius`,
		`rate(node_net_bytes_total[5m])`,
		`sum(rate(node_net_bytes_total[5m]))`,
		`max_over_time(node_temp_celsius[10m])`,
		`avg(node_temp_celsius) by (xname)`,
		`node_temp_celsius > 75`,
	}
	windows := []struct {
		name       string
		start, end int64 // ms
		step       time.Duration
	}{
		{"aligned-hour", 0, 3600_000, time.Minute},
		{"range-not-divisible-by-step", 0, 3601_000, 55 * time.Second},
		{"unaligned-start", 37_000, 3598_000, 55 * time.Second},
		{"single-instant", 300_000, 300_000, time.Minute},
	}
	for _, q := range queries {
		for _, w := range windows {
			name := fmt.Sprintf("%s/%s", q, w.name)
			want, err := mono.QueryRange(q, w.start, w.end, w.step)
			if err != nil {
				t.Fatalf("%s: monolithic: %v", name, err)
			}
			// The third pass runs after the first two results were
			// overwritten: nothing copies a matrix on its way out except
			// mergeSplits, so a caller's writes must not reach the cache.
			for _, pass := range []string{"cold", "warm", "after-overwrite"} {
				got, err := split.QueryRange(q, w.start, w.end, w.step)
				if err != nil {
					t.Fatalf("%s: %s: %v", name, pass, err)
				}
				if fmt.Sprintf("%+v", want) != fmt.Sprintf("%+v", got) {
					t.Errorf("%s: %s result differs\nmono:  %+v\nsplit: %+v", name, pass, want, got)
				}
				for _, s := range got {
					for i := range s.Points {
						s.Points[i] = Point{T: -1, V: -1}
					}
				}
			}
		}
	}
}
