// Command bench is the repository's benchmark: four workloads over the
// monitoring pipeline, end-to-end metrics measured with tracing off, and
// a traced pass that yields the per-layer ledger. See README.md.
//
//	go run -C bench . --workload detect.live --seed 1 --seconds 20 --trace 0
//	go run -C bench .              # all four workloads, each in a child process
//	go run -C bench . --trace 1    # the same, plus the traced pass and trace files
//	go run -C bench . --repeat 2   # the set twice; disagreement beyond a bound fails
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"shastamon/internal/wal"
)

// metricSpec names one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	series string  // recorder series the value is the median of
}

// endToEnd are the gated metrics; every workload reports every one. On
// the 2-core host the benchmark was defined on, the timing metrics spread
// (quartile distance over median, ten seeds) by 2 to 16 % depending on
// the quarter of an hour, whatever the sample count, so they carry the
// contract's widest bound, 0.25; nothing tighter can be told from noise
// there. disk_bytes_per_msg is a count and spreads by 0.05 %.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ingest_msgs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, series: "ingest_msgs_per_s"},
	{Name: "durable_ingest_msgs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, series: "durable_ingest_msgs_per_s"},
	{Name: "recovery_s", Unit: "s", Better: "lower", Bound: 0.25, series: "recovery_s"},
	{Name: "disk_bytes_per_msg", Unit: "B/msg", Better: "lower", Bound: 0.05, series: "disk_bytes_per_msg"},
	{Name: "rule_query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, series: "rule_query_ms"},
	{Name: "panel_cold_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, series: "panel_cold_ms"},
	{Name: "panel_refresh_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, series: "panel_refresh_ms"},
	{Name: "panel_live_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, series: "panel_live_ms"},
	{Name: "detect_leak_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, series: "detect_leak_ms"},
	{Name: "detect_switch_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, series: "detect_switch_ms"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// workloadSpec names one workload of BENCHMARK.json. Every run executes
// all four kernels, because every gated metric has to come out of every
// run; the workload decides which kernel runs long (sustained, many
// samples) while the other three run as short probes.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadSpec{
	{"ingest.pipeline", "Long run of the paper's hop chain, producer to Kafka to Telemetry API to forwarder to Loki/TSDB, memory-only: kafka, telemetry, core, anomaly and loki pushes work; wal and the query engines do not."},
	{"ingest.durable", "Long run of 256-entry batches plus samples straight into a WAL-backed warehouse (fsync=interval), two checkpoints, crash, five reopens: wal, chunkenc, durable loki/tsdb work; kafka, telemetry do not."},
	{"query.dashboard", "Long read-only run over two stored hours: rule queries (json, pattern, PromQL, syslog scan over the block cache), cold 1h panels, cached refreshes: logql, chunkenc, frontend, promql; no writes."},
	{"detect.live", "Long run of emit-to-Slack ticks with both paper rules: a leak every 2nd tick, a switch flip and a live panel refresh every tick, writes beside reads on one store and one results cache."},
}

// sizes is how much fixed work each kernel does in one run.
type sizes struct {
	PipelineCycles int `json:"pipeline_cycles_per_segment"`
	DurableGroups  int `json:"durable_groups_per_segment"`
	DashRounds     int `json:"dashboard_rounds"`
	DetectTicks    int `json:"detect_ticks"`
	HistoryLines   int `json:"dashboard_syslog_lines"`
	SetupReps      int `json:"setup_repetitions"` // setup_s is the median of this many set-ups
}

// work is what each kernel does in a 20 s run, as the workload's long
// kernel and as a probe, at the commit that defined the benchmark on its
// 2-core host; --seconds scales it. Work is fixed, not time: a run does
// the same operations on every commit and takes about --seconds on that
// one. A probe is sized for the fewest samples that hold a median still
// (20 segments, 20 rounds, 60 leaks), a long run for about 7 s.
var work = map[string]struct{ long, probe float64 }{
	"ingest.pipeline": {13, 4},    // cycles per segment
	"ingest.durable":  {12, 6},    // groups per segment
	"query.dashboard": {40, 20},   // rounds
	"detect.live":     {400, 120}, // ticks
}

func sizesFor(workload string, seconds float64) sizes {
	units := func(kernel string) int {
		w := work[kernel].probe
		if kernel == workload {
			w = work[kernel].long
		}
		return max(int(w*seconds/20+0.5), 1)
	}
	return sizes{
		PipelineCycles: units("ingest.pipeline"),
		DurableGroups:  units("ingest.durable"),
		DashRounds:     units("query.dashboard"),
		DetectTicks:    units("detect.live"),
		HistoryLines:   240000,
		SetupReps:      3,
	}
}

// shortSizes keeps the unit tests to a few seconds.
var shortSizes = sizes{PipelineCycles: 1, DurableGroups: 1, DashRounds: 2, DetectTicks: 12, HistoryLines: 6000, SetupReps: 1}

// measured is one reported value.
type measured struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	TailMs  float64 `json:"tail_ms,omitempty"`  // highest percentile with >= 10 samples beyond it
	TailPct float64 `json:"tail_pct,omitempty"` // which percentile that is
}

// hostFacts head every document, so runs from different hosts are never
// compared.
type hostFacts struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	TimeNowNs  float64 `json:"time_now_ns"`
	Commit     string  `json:"commit"`
	Fsync      string  `json:"wal_fsync"`
	Clients    string  `json:"load"`
}

func facts() hostFacts {
	const n = 200000
	start := time.Now()
	for i := 0; i < n; i++ {
		_ = time.Now()
	}
	cost := float64(time.Since(start)) / n
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return hostFacts{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		TimeNowNs: cost, Commit: commit, Fsync: wal.FsyncInterval.String(),
		Clients: "closed loop, one client, one driver goroutine",
	}
}

// document is everything one run of one workload reports.
type document struct {
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	Seconds   float64             `json:"seconds"`
	Traced    bool                `json:"traced"`
	Host      hostFacts           `json:"host"`
	Sizes     sizes               `json:"sizes"`
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Problems  []string            `json:"problems,omitempty"`
	WallS     float64             `json:"wall_s"`
	Metrics   map[string]measured `json:"metrics"`
	TraceFile string              `json:"trace_file,omitempty"`
}

// runWorkload sets the four kernels up, runs them and assembles the
// document. dir holds the durable kernel's data and the trace file.
func runWorkload(workload string, seed int64, seconds float64, sz sizes, trace bool, dir string) (document, error) {
	began := time.Now()
	doc := document{Workload: workload, Seed: seed, Seconds: seconds, Traced: trace, Host: facts(), Sizes: sz, Metrics: map[string]measured{}}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return doc, err
	}
	dataDir := filepath.Join(dir, fmt.Sprintf("data-%d", os.Getpid()))
	defer os.RemoveAll(dataDir)

	rec := newRecorder(trace)
	if err := runKernels(rec, seed, sz, dataDir); err != nil {
		return doc, err
	}
	doc.Attempted, doc.Failed, doc.Problems = rec.attempted, rec.failed, rec.problems
	doc.Correct = len(rec.problems) == 0 && rec.failed == 0

	if trace {
		path, err := rec.tr.write(dir, workload, seed, stageSeconds(rec))
		if err != nil {
			return doc, fmt.Errorf("write trace: %w", err)
		}
		doc.TraceFile = path
		if err := layerMetrics(&doc, rec, seed, dir); err != nil {
			return doc, err
		}
	} else {
		var setupS float64
		for _, w := range workloads {
			setupS += median(rec.series["setup_"+w.Name+"_s"])
		}
		doc.Metrics["setup_s"] = measured{Value: setupS, Unit: "s", Samples: sz.SetupReps}
		for _, m := range endToEnd {
			if m.series == "" {
				continue
			}
			v := rec.series[m.series]
			if len(v) == 0 {
				return doc, fmt.Errorf("no sample of %s", m.Name)
			}
			mv := measured{Value: median(v), Unit: m.Unit, Samples: len(v)}
			if t, pct, ok := tail(v); ok && m.Unit == "ms" {
				mv.TailMs, mv.TailPct = t, pct
			}
			doc.Metrics[m.Name] = mv
		}
		// Diagnostics ride along in the document, never in the gate.
		doc.Metrics["tick_p50_ms"] = measured{Value: median(rec.series["tick_ms"]), Unit: "ms", Samples: len(rec.series["tick_ms"])}
		doc.Metrics["checkpoint_p50_ms"] = measured{Value: median(rec.series["checkpoint_ms"]), Unit: "ms", Samples: len(rec.series["checkpoint_ms"])}
		doc.Metrics["failed_share"] = measured{Value: float64(rec.failed) / float64(max(rec.attempted, 1)), Unit: "share"}
		for _, w := range workloads {
			doc.Metrics["phase_"+w.Name+"_s"] = measured{Value: rec.counts["phase_"+w.Name+"_s"], Unit: "s"}
		}
		rss, err := peakRSSMB()
		if err != nil {
			return doc, err
		}
		doc.Metrics["peak_rss_mb"] = measured{Value: rss, Unit: "MB"}
	}
	doc.WallS = time.Since(began).Seconds()
	return doc, nil
}

// stageSeconds picks the Tick stage split out of the counters.
func stageSeconds(rec *recorder) map[string]float64 {
	out := map[string]float64{}
	for _, s := range tickStages {
		out[s] = rec.counts["stage_"+s+"_s"]
	}
	return out
}

// peakRSSMB is this process's high-water resident set, VmHWM.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// phase gives one kernel the process to itself: it is set up reps times
// (the median goes into setup_s; set-up is everything before the
// first timed operation — building the deployment, generating and
// preloading its stored hours, warm-up), run, and dropped before the next
// kernel starts, so no kernel's heap rides under another's numbers. With
// several deployments resident the collector runs rarely and long, and
// every allocation-heavy query is either inside a collection or not: a
// two-mode distribution no median sits still on.
func phase[K interface{ close() }](rec *recorder, name string, reps int, setup func() (K, error), run func(K) error) error {
	var k K
	for i := 0; i < reps; i++ {
		if i > 0 {
			k.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if k, err = setup(); err != nil {
			return fmt.Errorf("%s set-up: %w", name, err)
		}
		rec.add("setup_"+name+"_s", time.Since(start).Seconds())
	}
	defer k.close()
	start := time.Now()
	if err := run(k); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	rec.counts["phase_"+name+"_s"] = time.Since(start).Seconds()
	return nil
}

// runKernels runs the four kernels one after the other on one goroutine,
// the read-only one first.
func runKernels(rec *recorder, seed int64, sz sizes, dataDir string) error {
	if err := phase(rec, "query.dashboard", sz.SetupReps,
		func() (*dashboardKernel, error) { return setupDashboard(seed, sz.HistoryLines) },
		func(k *dashboardKernel) error { return k.run(rec, sz.DashRounds) }); err != nil {
		return err
	}
	if err := phase(rec, "detect.live", sz.SetupReps,
		func() (*detectKernel, error) { return setupDetect(seed) },
		func(k *detectKernel) error { return k.run(rec, sz.DetectTicks) }); err != nil {
		return err
	}
	if err := phase(rec, "ingest.pipeline", sz.SetupReps,
		func() (*pipelineKernel, error) { return setupPipeline(seed) },
		func(k *pipelineKernel) error { return k.run(rec, sz.PipelineCycles) }); err != nil {
		return err
	}
	return phase(rec, "ingest.durable", sz.SetupReps,
		func() (*durableKernel, error) { return setupDurable(seed, dataDir) },
		func(k *durableKernel) error { return k.run(rec, sz.DurableGroups) })
}

// docFile is where a run leaves its full document.
func docFile(workload string, traced bool) string {
	if traced {
		return filepath.Join("out", "result-"+workload+"-traced.json")
	}
	return filepath.Join("out", "result-"+workload+".json")
}

// contractLine is the last line of standard output in single-workload
// mode, the shape the driver reads.
func contractLine(doc document) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	specs := endToEnd
	if doc.Traced {
		specs = perLayer
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{doc.Correct, doc.Attempted, doc.Failed, map[string]mv{}}
	for _, m := range specs {
		out.Metrics[m.Name] = mv{doc.Metrics[m.Name].Value, m.Unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings
	}
	return string(data)
}

func printTable(doc document) {
	fmt.Printf("workload %s  seed %d  traced %v  wall %.1fs  attempted %d  failed %d  correct %v\n",
		doc.Workload, doc.Seed, doc.Traced, doc.WallS, doc.Attempted, doc.Failed, doc.Correct)
	fmt.Printf("host: nproc %d GOMAXPROCS %d %s time.Now %.0fns commit %s wal-fsync %s; %s\n",
		doc.Host.NProc, doc.Host.GOMAXPROCS, doc.Host.GoVersion, doc.Host.TimeNowNs, doc.Host.Commit, doc.Host.Fsync, doc.Host.Clients)
	fmt.Printf("sizes: %+v\n", doc.Sizes)
	specs := append(append([]metricSpec{}, endToEnd...), metricSpec{Name: "tick_p50_ms"}, metricSpec{Name: "checkpoint_p50_ms"}, metricSpec{Name: "failed_share"})
	for _, w := range workloads {
		specs = append(specs, metricSpec{Name: "phase_" + w.Name + "_s"})
	}
	if doc.Traced {
		specs = perLayer
	}
	for _, m := range specs {
		v, ok := doc.Metrics[m.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-34s %14.4f %-6s", m.Name, v.Value, v.Unit)
		if v.Samples > 0 {
			line += fmt.Sprintf(" n=%d", v.Samples)
		}
		if v.TailPct > 0 {
			line += fmt.Sprintf("  p%.1f=%.3fms", v.TailPct, v.TailMs)
		}
		fmt.Println(line)
	}
	for _, p := range doc.Problems {
		fmt.Println("  PROBLEM:", p)
	}
	if doc.TraceFile != "" {
		fmt.Println("  trace:", doc.TraceFile)
	}
}

func main() {
	workload := flag.String("workload", "", "run one workload in this process and end with the driver's result line; empty runs all four, each in a child process")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "how long a run measures at the commit that defined the benchmark; sets the amount of fixed work")
	trace := flag.Int("trace", 0, "1 keeps spans, writes out/trace-<workload>.json and reports the per-layer metrics")
	repeat := flag.Int("repeat", 1, "run the whole set this many times and fail on disagreement beyond a metric's bound")
	flag.Parse()

	if *workload == "" {
		os.Exit(runSet(*seed, *seconds, *trace == 1, *repeat))
	}
	if _, known := work[*workload]; !known {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	doc, err := runWorkload(*workload, *seed, *seconds, sizesFor(*workload, *seconds), *trace == 1, "out")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	// The full document, for the parent process of the no-workload mode
	// and for anyone who wants more than the result line.
	data, err := json.Marshal(doc)
	if err == nil {
		err = os.WriteFile(docFile(*workload, *trace == 1), data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	printTable(doc)
	fmt.Println(contractLine(doc))
	if !doc.Correct {
		os.Exit(1)
	}
}
