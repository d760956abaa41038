package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
)

// child runs one workload in a process of its own, so peak memory and
// runtime state never carry from one workload to the next; its table goes
// straight to standard output and its document comes back from docFile.
func child(workload string, seed int64, seconds float64, trace bool) (document, error) {
	var doc document
	t := 0
	if trace {
		t = 1
	}
	cmd := exec.Command(os.Args[0], "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(t))
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return doc, fmt.Errorf("%s: %w", workload, err)
	}
	data, err := os.ReadFile(docFile(workload, trace))
	if err != nil {
		return doc, err
	}
	return doc, json.Unmarshal(data, &doc)
}

// setResult is one pass over all four workloads.
type setResult struct {
	Untraced []document `json:"untraced"`
	Traced   []document `json:"traced,omitempty"`
	// TraceOverhead is, per workload and timing metric, how much worse
	// the traced pass's own sample medians were than the untraced ones.
	TraceOverhead map[string]float64 `json:"trace_overhead_share,omitempty"`
}

func runOnce(seed int64, seconds float64, trace bool) (setResult, error) {
	var res setResult
	for _, w := range workloads {
		doc, err := child(w.Name, seed, seconds, false)
		if err != nil {
			return res, err
		}
		res.Untraced = append(res.Untraced, doc)
		if !trace {
			continue
		}
		tdoc, err := child(w.Name, seed, seconds, true)
		if err != nil {
			return res, err
		}
		res.Traced = append(res.Traced, tdoc)
		if res.TraceOverhead == nil {
			res.TraceOverhead = map[string]float64{}
		}
		// The traced pass reports the same end-to-end series under a
		// "traced_" prefix; the mean of their slow-downs is the overhead.
		var sum float64
		var n int
		for _, m := range endToEnd {
			tv, ok := tdoc.Metrics["traced_"+m.Name]
			if !ok || m.series == "" {
				continue
			}
			sum += worseBy(doc.Metrics[m.Name].Value, tv.Value, m.Better)
			n++
		}
		if n > 0 {
			res.TraceOverhead[w.Name] = sum / float64(n)
			fmt.Printf("  trace_overhead_share %.4f (mean over %d timing metrics)\n", sum/float64(n), n)
		}
	}
	return res, nil
}

// runSet is the no-workload mode: every workload in a child process, one
// JSON document at the end, and with repeat > 1 the stability check.
func runSet(seed int64, seconds float64, trace bool, repeat int) int {
	var passes []setResult
	for i := 0; i < repeat; i++ {
		res, err := runOnce(seed, seconds, trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		passes = append(passes, res)
	}
	code := 0
	for _, p := range passes {
		for _, d := range append(append([]document{}, p.Untraced...), p.Traced...) {
			if !d.Correct {
				code = 1
			}
		}
	}
	if repeat > 1 {
		fmt.Printf("\nstability over %d passes of the same code (spread = (max-min)/min of the pass values):\n", repeat)
		for wi, w := range workloads {
			for _, m := range endToEnd {
				lo, hi := passes[0].Untraced[wi].Metrics[m.Name].Value, passes[0].Untraced[wi].Metrics[m.Name].Value
				for _, p := range passes[1:] {
					v := p.Untraced[wi].Metrics[m.Name].Value
					lo, hi = min(lo, v), max(hi, v)
				}
				spread := (hi - lo) / lo
				verdict := "ok"
				if spread > m.Bound {
					verdict = "unresolved"
					code = 1
				}
				fmt.Printf("  %-16s %-28s spread %6.2f%%  bound %4.0f%%  %s\n", w.Name, m.Name, 100*spread, 100*m.Bound, verdict)
			}
		}
	}
	data, err := json.Marshal(struct {
		EndToEnd  []metricSpec   `json:"end_to_end"`
		PerLayer  []metricSpec   `json:"per_layer"`
		Workloads []workloadSpec `json:"workloads"`
		Passes    []setResult    `json:"passes"`
	}{endToEnd, perLayer, workloads, passes})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(data))
	return code
}
