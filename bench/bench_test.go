package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // descending: tail must sort
		}
		return v
	}
	for _, tc := range []struct {
		n         int
		ok        bool
		pct, want float64
	}{
		{19, false, 0, 0},
		{20, true, 50, 10},
		{100, true, 90, 90},
		{1000, true, 99, 990},
	} {
		got, pct, ok := tail(samples(tc.n))
		if ok != tc.ok || pct != tc.pct || got != tc.want {
			t.Errorf("tail of %d samples = %v at p%v (ok %v), want %v at p%v (ok %v)", tc.n, got, pct, ok, tc.want, tc.pct, tc.ok)
		}
		// Exactly ten samples lie beyond the reported value.
		if ok {
			beyond := 0
			for _, s := range samples(tc.n) {
				if s > got {
					beyond++
				}
			}
			if beyond != 10 {
				t.Errorf("%d samples beyond the tail of %d, want 10", beyond, tc.n)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of three = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %v", got)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{Name: "cycle", Parent: -1, Start: 0, End: 100},
		{Name: "produce", Parent: 0, Start: 10, End: 30},
		{Name: "forward", Parent: 0, Start: 40, End: 90},
		{Name: "poll", Parent: 2, Start: 50, End: 60}, // grandchild: charged to forward only
	}
	selfTimes(spans)
	for i, want := range []int64{30, 20, 40, 10} {
		if spans[i].Self != want {
			t.Errorf("%s self = %d, want %d", spans[i].Name, spans[i].Self, want)
		}
	}
	var sum int64
	for _, s := range spans {
		sum += s.Self
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, the root lasted 100", sum)
	}
}

func TestTracerNestsAndNilRecordsNothing(t *testing.T) {
	var off *tracer
	off.end(off.begin("x", 1)) // must not panic
	tr := newTracer()
	outer := tr.begin("tick", 7)
	inner := tr.begin("panel", 7)
	tr.end(inner)
	tr.end(outer)
	if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 || tr.spans[1].Trace != 7 {
		t.Errorf("spans = %+v", tr.spans)
	}
}

// inputsDigest renders everything a seed generates, byte for byte.
func inputsDigest(seed int64) []byte {
	var b bytes.Buffer
	for _, h := range []*history{dashboardHistory(seed, 2000), detectHistory(seed, newDetectPlan(seed))} {
		for _, batch := range h.logs {
			for _, ps := range batch {
				fmt.Fprintln(&b, ps.Labels.String())
				for _, e := range ps.Entries {
					fmt.Fprintln(&b, e.Timestamp, e.Line)
				}
			}
		}
		for _, s := range h.samples {
			fmt.Fprintln(&b, s.name, s.labels.String(), s.ms, s.v)
		}
		fmt.Fprintln(&b, len(h.leaks), len(h.switches), len(h.syslog))
	}
	plan := newDetectPlan(seed)
	for k := -warmTicks; k < 40; k++ {
		fmt.Fprintln(&b, plan.tick(k))
	}
	for _, m := range newSyslogGen(seed).messages(500, t0, time.Minute) {
		fmt.Fprintln(&b, m)
	}
	return b.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b, c := inputsDigest(3), inputsDigest(3), inputsDigest(4)
	if !bytes.Equal(a, b) {
		t.Error("the same seed generated different inputs")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds generated the same inputs")
	}
}

func TestDetectPlanNeverReusesAComponentTooEarly(t *testing.T) {
	plan := newDetectPlan(1)
	lastLeak := map[string]int{}
	seenSwitch := map[string]bool{}
	window := int(time.Hour / tickStep)
	for k := -warmTicks - window; k < plan.maxTicks(); k++ {
		tp := plan.tick(k)
		if tp.leakBMC != "" {
			if prev, ok := lastLeak[tp.leakBMC]; ok && k-prev <= window+2 {
				t.Fatalf("tick %d leaks on %s again %d ticks after the last leak; the rule window and hold span %d", k, tp.leakBMC, k-prev, window+2)
			}
			lastLeak[tp.leakBMC] = k
		}
		if k >= -warmTicks-preloadSwitchTicks {
			if tp.switchX == "" || seenSwitch[tp.switchX] {
				t.Fatalf("tick %d flips switch %q, already flipped or none", k, tp.switchX)
			}
			seenSwitch[tp.switchX] = true
		}
	}
}

func TestReferenceWindowEdges(t *testing.T) {
	at := t0
	evs := []event{
		{at.Add(-5 * time.Minute).UnixNano(), "a"}, // on the open edge: out
		{at.Add(-5*time.Minute + 1).UnixNano(), "a"},
		{at.UnixNano(), "b"}, // on the closed edge: in
		{at.Add(1).UnixNano(), "b"},
	}
	got := countWindow(evs, at, 5*time.Minute)
	if !reflect.DeepEqual(got, map[string]float64{"a": 1, "b": 1}) {
		t.Errorf("countWindow = %v", got)
	}
}

// TestSmoke runs all four kernels at test size with every correctness
// check on, untraced and traced. At test size every workload does the
// same work, so one workload stands for all four; TestSizes covers what
// tells them apart.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	doc, err := runWorkload("ingest.pipeline", 1, 0, shortSizes, false, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !doc.Correct || doc.Failed != 0 || doc.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d problems=%v", doc.Correct, doc.Attempted, doc.Failed, doc.Problems)
	}
	for _, m := range endToEnd {
		if v, ok := doc.Metrics[m.Name]; !ok || !(v.Value > 0) {
			t.Errorf("%s = %v, want a positive measurement", m.Name, v.Value)
		}
	}

	traced, err := runWorkload("ingest.pipeline", 1, 0, shortSizes, true, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !traced.Correct {
		t.Errorf("traced run: %v", traced.Problems)
	}
	// The same seed does the same operations, traced or not.
	if traced.Attempted != doc.Attempted {
		t.Errorf("same seed, %d then %d operations", doc.Attempted, traced.Attempted)
	}
	for _, m := range perLayer {
		if _, ok := traced.Metrics[m.Name]; !ok {
			t.Errorf("traced run lacks %s", m.Name)
		}
	}
	if share := traced.Metrics["explained_share"].Value; share < 0.9 || share > 1.01 {
		t.Errorf("tick stages explain %.3f of tick wall time", share)
	}
	var tf traceFile
	data, err := os.ReadFile(traced.TraceFile)
	if err == nil {
		err = json.Unmarshal(data, &tf)
	}
	if err != nil || len(tf.Spans) == 0 || len(tf.Totals) == 0 {
		t.Errorf("trace file %s: %v, %d spans", traced.TraceFile, err, len(tf.Spans))
	}
	for _, s := range tf.Spans {
		if s.Self < 0 || s.Self > s.End-s.Start {
			t.Fatalf("span %+v has a self time outside its duration", s)
		}
	}
}

// TestSizes: a workload gives its own kernel the long run and the others
// a probe, and --seconds scales the work.
func TestSizes(t *testing.T) {
	get := map[string]func(sizes) int{
		"ingest.pipeline": func(s sizes) int { return s.PipelineCycles },
		"ingest.durable":  func(s sizes) int { return s.DurableGroups },
		"query.dashboard": func(s sizes) int { return s.DashRounds },
		"detect.live":     func(s sizes) int { return s.DetectTicks },
	}
	for _, w := range workloads {
		for _, k := range workloads {
			own, other := get[k.Name](sizesFor(k.Name, 20)), get[k.Name](sizesFor(w.Name, 20))
			if w.Name != k.Name && own <= other {
				t.Errorf("kernel %s does %d units as the long kernel and %d under workload %s", k.Name, own, other, w.Name)
			}
		}
		if half, full := sizesFor(w.Name, 10), sizesFor(w.Name, 20); half.DetectTicks*2 != full.DetectTicks {
			t.Errorf("%s: %d ticks at 10 s, %d at 20 s", w.Name, half.DetectTicks, full.DetectTicks)
		}
	}
}

// TestBenchmarkJSON holds ../BENCHMARK.json to the specs this package
// measures by.
func TestBenchmarkJSON(t *testing.T) {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var want struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []e2e          `json:"end_to_end"`
		PerLayer   []layer        `json:"per_layer"`
	}
	want.Command = []string{"go", "run", "-C", "bench", "."}
	want.Paths = []string{"bench"}
	want.RunSeconds = 20
	want.Workloads = workloads
	for _, m := range endToEnd {
		want.EndToEnd = append(want.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		want.PerLayer = append(want.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	expected, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	expected = append(expected, '\n')
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, expected) {
		t.Errorf("../BENCHMARK.json differs from the specs in main.go and layers.go; it should read:\n%s", expected)
	}
	for _, w := range workloads {
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
}
