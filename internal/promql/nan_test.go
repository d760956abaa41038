package promql

import (
	"math"
	"testing"
)

// NaN follows Prometheus: min/max replace a NaN accumulator with the next
// number, in the aggregations and in the *_over_time functions alike.
func TestNaNMinMax(t *testing.T) {
	db, eng := setupDB(t)
	for i, v := range []float64{0, 1, 2} {
		app(t, db, "m", []string{"i", string(rune('a' + i))}, 1000, v)
	}
	nan := math.NaN()
	for name, vals := range map[string][]float64{"first": {nan, 1, 2}, "middle": {1, nan, 2}, "all": {nan, nan}} {
		for i, v := range vals {
			app(t, db, name, nil, int64(i+1)*1000, v)
		}
	}
	for q, want := range map[string]float64{
		`min(m / 0)`:                math.Inf(1),
		`max(m / 0)`:                math.Inf(1),
		`min(0 / m)`:                0,
		`min_over_time(first[1m])`:  1,
		`max_over_time(first[1m])`:  2,
		`min_over_time(middle[1m])`: 1,
		`max_over_time(middle[1m])`: 2,
		`max_over_time(all[1m])`:    math.NaN(),
	} {
		vec, err := eng.Query(q, 3000)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(vec) != 1 || !(vec[0].V == want || (math.IsNaN(vec[0].V) && math.IsNaN(want))) {
			t.Errorf("%s = %+v, want %v", q, vec, want)
		}
	}
}
