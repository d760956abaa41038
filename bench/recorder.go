package main

import (
	"fmt"
	"time"
)

// recorder collects what one run measures: timing samples by series,
// counters, the operation ledger and correctness problems. Kernels write
// to it; main turns it into metrics.
type recorder struct {
	tr        *tracer // nil when tracing is off
	series    map[string][]float64
	counts    map[string]float64
	attempted int64
	failed    int64
	problems  []string
}

func newRecorder(trace bool) *recorder {
	r := &recorder{series: map[string][]float64{}, counts: map[string]float64{}}
	if trace {
		r.tr = newTracer()
	}
	return r
}

func (r *recorder) add(series string, v float64) { r.series[series] = append(r.series[series], v) }

// problem records a correctness mismatch; any problem fails the run.
func (r *recorder) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// ops books n attempted operations of which ok were acknowledged.
func (r *recorder) ops(n, ok int) {
	r.attempted += int64(n)
	r.failed += int64(n - ok)
}

// timed runs fn inside a span named name and returns its wall time. The
// clock is read once on each side whether or not spans are kept.
func (r *recorder) timed(name string, trace int, fn func() error) (time.Duration, error) {
	i := r.tr.begin(name, trace)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	r.tr.end(i)
	return d, err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
