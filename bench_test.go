// Benchmarks regenerating the paper's quantitative claims and the design
// ablations DESIGN.md calls out. One benchmark (family) per claim:
//
//	C1  BenchmarkOMNIIngest*        "OMNI ingests up to 400,000 msgs/s"
//	C2  BenchmarkSustainedBytes     "Perlmutter: >400 GB/day"
//	C3  BenchmarkLabelCardinality   label overuse -> many small chunks
//	C4  BenchmarkChunkCompression   compressed chunks cut storage
//	C5  BenchmarkShardedIngest      the 8-worker Loki cluster layout
//	E4  BenchmarkFig5Query          the leak count_over_time query
//	E7  BenchmarkFig8Query          the switch pattern query
//	C7  BenchmarkPipelineTick       full-pipeline evaluation cadence
//	    BenchmarkAlertmanagerFanout grouping fan-in
//	    BenchmarkIndexedVsGrep      Loki's label-index design premise
package shastamon

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shastamon/internal/alertmanager"
	"shastamon/internal/chunkenc"
	"shastamon/internal/core"
	"shastamon/internal/eventsearch"
	"shastamon/internal/experiments"
	"shastamon/internal/frontend"
	"shastamon/internal/labels"
	"shastamon/internal/logql"
	"shastamon/internal/loki"
	"shastamon/internal/obs"
	"shastamon/internal/omni"
	"shastamon/internal/ruler"
	"shastamon/internal/stats"
	"shastamon/internal/syslogd"
	"shastamon/internal/tenant"
	"shastamon/internal/wal"
)

const leakLine = `{"Severity":"Warning","MessageId":"CrayAlerts.1.0.CabinetLeakDetected","Message":"Sensor 'A' of the redundant leak sensors in the 'Front' cabinet zone has detected a leak."}`

func benchHosts(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("nid%06d", i+1)
	}
	return out
}

// C1: warehouse ingest throughput, logs only. The b.N/elapsed rate is the
// number to compare against the paper's 400k msgs/s.
func BenchmarkOMNIIngestLogs(b *testing.B) {
	wh := omni.New(omni.Config{})
	gen := syslogd.NewGenerator(1, benchHosts(64)...)
	msgs := make([]loki.PushStream, 256)
	for i := range msgs {
		msgs[i] = core.SyslogToLoki(gen.Next(time.Unix(0, int64(i))), "perlmutter")
	}
	b.ReportAllocs()
	b.ResetTimer()
	ts := int64(0)
	for i := 0; i < b.N; i++ {
		ps := msgs[i%len(msgs)]
		ts += 1e6
		ps.Entries = []loki.Entry{{Timestamp: ts, Line: ps.Entries[0].Line}}
		if err := wh.IngestLogs([]loki.PushStream{ps}); err != nil {
			b.Fatal(err)
		}
	}
}

// C1 with durability on: the same single-message ingest loop as
// BenchmarkOMNIIngestLogs, but through a warehouse opened with a data
// directory — every push is WAL-logged (lazy fsync) before acking. The
// delta against the WAL-off run above is the durability overhead
// BENCH_ingest.json tracks.
func BenchmarkOMNIIngestLogsWAL(b *testing.B) {
	wh, err := omni.Open(omni.Config{DataDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	gen := syslogd.NewGenerator(1, benchHosts(64)...)
	msgs := make([]loki.PushStream, 256)
	for i := range msgs {
		msgs[i] = core.SyslogToLoki(gen.Next(time.Unix(0, int64(i))), "perlmutter")
	}
	b.ReportAllocs()
	b.ResetTimer()
	ts := int64(0)
	for i := 0; i < b.N; i++ {
		ps := msgs[i%len(msgs)]
		ts += 1e6
		ps.Entries = []loki.Entry{{Timestamp: ts, Line: ps.Entries[0].Line}}
		if err := wh.IngestLogs([]loki.PushStream{ps}); err != nil {
			b.Fatal(err)
		}
	}
}

// Crash-recovery speed: replay a 100k-entry WAL into a fresh store. Each
// iteration is one full cold start (checkpoint-free worst case); the
// entries/s metric is the replay rate, ns/op the recovery time.
func BenchmarkWALRecovery(b *testing.B) {
	const streams, entriesPer = 64, 1563 // ~100k entries
	dir := b.TempDir()
	limits := loki.DefaultLimits()
	limits.Shards = 4
	seed := loki.NewStore(limits)
	if _, err := seed.EnableDurability(dir, wal.Options{}); err != nil {
		b.Fatal(err)
	}
	gen := syslogd.NewGenerator(9, benchHosts(streams)...)
	total := 0
	for e := 0; e < entriesPer; e++ {
		batch := make([]loki.PushStream, streams)
		for s := range batch {
			batch[s] = core.SyslogToLoki(gen.Next(time.Unix(0, int64(e)*1e6)), "perlmutter")
		}
		if err := seed.Push(batch); err != nil {
			b.Fatal(err)
		}
		total += streams
	}
	// No shutdown: the directory is a crash image and stays replayable.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := loki.NewStore(limits)
		info, err := st.EnableDurability(dir, wal.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if info.Replayed != total {
			b.Fatalf("replayed %d of %d", info.Replayed, total)
		}
	}
	b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "entries/s")
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/recovery")
}

// C1: metric samples.
func BenchmarkOMNIIngestMetrics(b *testing.B) {
	wh := omni.New(omni.Config{})
	ls := make([]labels.Labels, 64)
	for i := range ls {
		ls[i] = labels.FromStrings("xname", fmt.Sprintf("x1000c0s%db0n0", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := wh.IngestMetric("cray_telemetry_temperature", ls[i%64], int64(i), 45); err != nil {
			b.Fatal(err)
		}
	}
}

// C1: the paper's mixed event/metric stream, batched as the Telemetry API
// clients batch it.
func BenchmarkOMNIIngestMixedBatch(b *testing.B) {
	wh := omni.New(omni.Config{})
	gen := syslogd.NewGenerator(2, benchHosts(64)...)
	b.ReportAllocs()
	b.ResetTimer()
	ts := int64(0)
	for i := 0; i < b.N; i++ {
		batch := make([]loki.PushStream, 64)
		for j := range batch {
			ts += 1e6
			batch[j] = core.SyslogToLoki(gen.Next(time.Unix(0, ts)), "perlmutter")
		}
		if err := wh.IngestLogs(batch); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 16; j++ {
			_ = wh.IngestMetric("cray_telemetry_power", labels.FromStrings("xname", "x1000c0s0b0n0"), ts/1e6+int64(j), 520)
		}
	}
}

// C2: sustained byte throughput (SetBytes makes go test report MB/s; the
// paper's 400 GB/day is ~4.6 MB/s).
func BenchmarkSustainedBytes(b *testing.B) {
	wh := omni.New(omni.Config{})
	gen := syslogd.NewGenerator(3, benchHosts(128)...)
	lines := make([]syslogd.Message, 512)
	var total int
	for i := range lines {
		lines[i] = gen.Next(time.Unix(0, int64(i)))
		total += len(lines[i].Text)
	}
	b.SetBytes(int64(total / len(lines)))
	b.ReportAllocs()
	b.ResetTimer()
	ts := int64(0)
	for i := 0; i < b.N; i++ {
		m := lines[i%len(lines)]
		ts += 1e6
		m.Timestamp = time.Unix(0, ts)
		if err := wh.IngestLogs([]loki.PushStream{core.SyslogToLoki(m, "perlmutter")}); err != nil {
			b.Fatal(err)
		}
	}
}

// C3: the same entries under three label schemes. More labels -> more
// streams -> more, smaller chunks -> slower pushes; run with -bench
// LabelCardinality and compare ns/op plus the streams metric.
func BenchmarkLabelCardinality(b *testing.B) {
	schemes := []struct {
		name string
		lbls func(m syslogd.Message, i int) labels.Labels
	}{
		{"paper3", func(m syslogd.Message, i int) labels.Labels {
			return labels.FromStrings("cluster", "perlmutter", "data_type", "syslog", "hostname", m.Hostname)
		}},
		{"plus2", func(m syslogd.Message, i int) labels.Labels {
			return labels.FromStrings("cluster", "perlmutter", "data_type", "syslog", "hostname", m.Hostname, "app", m.App, "severity", m.SeverityName())
		}},
		{"uniqueID", func(m syslogd.Message, i int) labels.Labels {
			return labels.FromStrings("cluster", "perlmutter", "data_type", "syslog", "hostname", m.Hostname, "req", fmt.Sprintf("%d", i))
		}},
	}
	for _, sc := range schemes {
		b.Run(sc.name, func(b *testing.B) {
			store := loki.NewStore(loki.Limits{MaxLabelNamesPerStream: 20, MaxLineSize: 1 << 20,
				ChunkOptions: chunkenc.Options{TargetSize: 256 * 1024}})
			gen := syslogd.NewGenerator(4, benchHosts(32)...)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := gen.Next(time.Unix(0, int64(i)*1e6))
				err := store.Push([]loki.PushStream{{
					Labels:  sc.lbls(m, i),
					Entries: []loki.Entry{{Timestamp: m.Timestamp.UnixNano(), Line: m.Text}},
				}})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := store.Stats()
			b.ReportMetric(float64(st.Streams), "streams")
			b.ReportMetric(float64(st.Chunks), "chunks")
		})
	}
}

// C4: compression ratio of sealed chunks per corpus.
func BenchmarkChunkCompression(b *testing.B) {
	corpora := []struct {
		name string
		line func(gen *syslogd.Generator, i int) string
	}{
		{"redfish", func(*syslogd.Generator, int) string { return leakLine }},
		{"syslog", func(gen *syslogd.Generator, i int) string { return gen.Next(time.Unix(int64(i), 0)).Text }},
	}
	for _, c := range corpora {
		b.Run(c.name, func(b *testing.B) {
			gen := syslogd.NewGenerator(5, "nid000001")
			var raw, compressed int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ch := chunkenc.New(chunkenc.Options{TargetSize: 1 << 30, MaxEntries: 1 << 30})
				for j := 0; j < 2000; j++ {
					if err := ch.Append(chunkenc.Entry{Timestamp: int64(j) * 1e9, Line: c.line(gen, j)}); err != nil {
						b.Fatal(err)
					}
				}
				if err := ch.Close(); err != nil {
					b.Fatal(err)
				}
				raw, compressed = ch.RawBytes(), ch.CompressedBytes()
			}
			b.ReportMetric(float64(raw)/float64(compressed), "compression-ratio")
		})
	}
}

// C5: the paper's Loki deployment runs 8 worker nodes. The store now
// shards internally (Limits.Shards lock stripes), so this drives ONE
// store from N concurrent pushers, each owning the streams whose
// fingerprint hashes to it — contention is whatever the store's own
// striping leaves, not an artifact of running N separate stores.
func BenchmarkShardedIngest(b *testing.B) {
	gen := syslogd.NewGenerator(6, benchHosts(256)...)
	msgs := make([]loki.PushStream, 4096)
	for i := range msgs {
		msgs[i] = core.SyslogToLoki(gen.Next(time.Unix(0, int64(i)*1e6)), "perlmutter")
	}
	run := func(shards, pushers int) func(b *testing.B) {
		return func(b *testing.B) {
			limits := loki.DefaultLimits()
			limits.Shards = shards
			store := loki.NewStore(limits)
			// Pre-partition so each pusher owns whole streams and pushes
			// stay in timestamp order within a stream.
			parts := make([][]loki.PushStream, shards)
			for _, ps := range msgs {
				w := int(uint64(ps.Labels.Fingerprint()) % uint64(shards))
				parts[w] = append(parts[w], ps)
			}
			push := func(base int64, part []loki.PushStream) {
				for j, ps := range part {
					e := ps.Entries[0]
					e.Timestamp = base + int64(j)*1e3
					if err := store.Push([]loki.PushStream{{Labels: ps.Labels, Entries: []loki.Entry{e}}}); err != nil {
						b.Error(err)
						return
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Advance timestamps each iteration so the single shared
				// store keeps accepting in-order entries.
				base := int64(i+1) * int64(len(msgs)) * 1e6
				if pushers == 1 {
					// Serial control: same striped store, no goroutine
					// fan-out — isolates scheduler overhead from the cost
					// of striping itself.
					for w := 0; w < shards; w++ {
						push(base, parts[w])
					}
				} else {
					var wg sync.WaitGroup
					for w := 0; w < shards; w++ {
						wg.Add(1)
						go func(w int) {
							defer wg.Done()
							push(base, parts[w])
						}(w)
					}
					wg.Wait()
				}
			}
			b.StopTimer()
			pushes := store.ShardPushes()
			busy := 0
			for _, n := range pushes {
				if n > 0 {
					busy++
				}
			}
			b.ReportMetric(float64(busy), "busy-shards")
		}
	}
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), run(shards, shards))
		if shards > 1 {
			b.Run(fmt.Sprintf("shards=%d,pushers=1", shards), run(shards, 1))
		}
	}
}

// C1 (parallel): the same ingest path driven from GOMAXPROCS goroutines,
// each goroutine owning a distinct stream so pushes never interleave
// out of order. Run with -cpu 1,4,8 on a multi-core machine to see the
// lock-striped scaling; msgs/s is 1e9/(ns/op).
func BenchmarkOMNIIngestLogsParallel(b *testing.B) {
	wh := omni.New(omni.Config{})
	var goroutineID atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := goroutineID.Add(1)
		ls := labels.FromStrings("cluster", "perlmutter", "data_type", "syslog",
			"hostname", fmt.Sprintf("nid%06d", id))
		line := fmt.Sprintf("nid%06d sshd[12345]: Accepted publickey for user from 10.0.0.%d", id, id%256)
		ts := int64(0)
		for pb.Next() {
			ts += 1e6
			err := wh.IngestLogs([]loki.PushStream{{
				Labels:  ls,
				Entries: []loki.Entry{{Timestamp: ts, Line: line}},
			}})
			if err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// Tenancy guardrail: multi-tenant plumbing must be near-free when
// unused. Both variants run the exact BenchmarkOMNIIngestLogs loop on
// the default tenant; "off" has no tenant overrides configured, "on"
// carries a full overrides table (default limits generous enough to
// never shed, plus a per-tenant entry) so every push pays the limit
// lookup and rate-limiter check. BENCH_ingest.json tracks the pair; the
// acceptance bar is <5% overhead.
func BenchmarkTenantIngest(b *testing.B) {
	run := func(b *testing.B, wh *omni.Warehouse) {
		gen := syslogd.NewGenerator(1, benchHosts(64)...)
		msgs := make([]loki.PushStream, 256)
		for i := range msgs {
			msgs[i] = core.SyslogToLoki(gen.Next(time.Unix(0, int64(i))), "perlmutter")
		}
		b.ReportAllocs()
		b.ResetTimer()
		ts := int64(0)
		for i := 0; i < b.N; i++ {
			ps := msgs[i%len(msgs)]
			ts += 1e6
			ps.Entries = []loki.Entry{{Timestamp: ts, Line: ps.Entries[0].Line}}
			if err := wh.IngestLogs([]loki.PushStream{ps}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) {
		run(b, omni.New(omni.Config{}))
	})
	b.Run("on", func(b *testing.B) {
		run(b, omni.New(omni.Config{TenantOverrides: &tenant.Overrides{
			Defaults: tenant.Limits{
				MaxStreams:       1 << 30,
				IngestRateBytes:  1 << 40,
				IngestBurstBytes: 1 << 40,
			},
			PerTenant: map[string]tenant.Limits{"hpc-a": {MaxStreams: 64}},
		}}))
	})
}

func loadLeakStore(b *testing.B, events int) *loki.Store {
	b.Helper()
	store := loki.NewStore(loki.DefaultLimits())
	ls := labels.FromStrings("Context", "x1203c1b0", "cluster", "perlmutter", "data_type", "redfish_event")
	entries := make([]loki.Entry, events)
	for i := range entries {
		entries[i] = loki.Entry{Timestamp: int64(i) * 1e6, Line: leakLine}
	}
	if err := store.Push([]loki.PushStream{{Labels: ls, Entries: entries}}); err != nil {
		b.Fatal(err)
	}
	return store
}

// E4 / Fig. 5: the paper's leak query over 10k stored events. The run
// also reports per-op bytes scanned and the chunk-cache hit ratio from
// the query statistics context — the scan-volume numbers bench.sh lands
// in BENCH_ingest.json.
func BenchmarkFig5Query(b *testing.B) {
	store := loadLeakStore(b, 10000)
	eng := logql.NewEngine(store)
	expr, err := logql.ParseMetricExpr(`sum(count_over_time({data_type="redfish_event"} |= "CabinetLeakDetected" | json [60m])) by (severity, cluster, Context, message_id, message)`)
	if err != nil {
		b.Fatal(err)
	}
	ctx, sc := stats.NewContext(context.Background())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vec, err := eng.InstantContext(ctx, expr, int64(time.Hour))
		if err != nil || len(vec) == 0 {
			b.Fatalf("%v %v", vec, err)
		}
	}
	b.StopTimer()
	snap := sc.Snapshot()
	b.ReportMetric(float64(snap.Summary.TotalBytesProcessed)/float64(b.N), "bytes-scanned")
	if total := snap.Store.CacheHits + snap.Store.CacheMisses; total > 0 {
		b.ReportMetric(float64(snap.Store.CacheHits)/float64(total), "cache-hit-ratio")
	}
}

// E4 (range) / Fig. 5 as a dashboard panel: the leak query evaluated as
// a range query the way Grafana refreshes it, over 10k events spread
// across one hour. Three variants measure the query frontend:
//
//	mono  the engine's monolithic range pass (no frontend) — baseline
//	cold  frontend splitting + shard fan-out, results cache disabled
//	warm  frontend with a primed results cache — the steady-state
//	      refresh, which should be a small multiple of pure merge cost
//
// Run with -cpu 1,2,4,8 for the QueryScaling series: cold speedup over
// mono is what time-split parallelism buys per core.
func BenchmarkFig5QueryRange(b *testing.B) {
	limits := loki.DefaultLimits()
	limits.Shards = 4
	store := loki.NewStore(limits)
	ls := labels.FromStrings("Context", "x1203c1b0", "cluster", "perlmutter", "data_type", "redfish_event")
	entries := make([]loki.Entry, 10000)
	for i := range entries {
		entries[i] = loki.Entry{Timestamp: int64(i) * 360 * 1e6, Line: leakLine} // one hour span
	}
	if err := store.Push([]loki.PushStream{{Labels: ls, Entries: entries}}); err != nil {
		b.Fatal(err)
	}
	const q = `sum(count_over_time({data_type="redfish_event"} |= "CabinetLeakDetected" | json [5m])) by (Context)`
	const start, end = int64(0), int64(time.Hour)
	farFuture := func() time.Time { return time.Unix(1<<32, 0) }

	run := func(eng *logql.Engine, prime bool) func(b *testing.B) {
		return func(b *testing.B) {
			if prime {
				if _, err := eng.QueryRange(q, start, end, time.Minute); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := eng.QueryRange(q, start, end, time.Minute)
				if err != nil || len(m) == 0 {
					b.Fatalf("%v %v", m, err)
				}
			}
		}
	}

	mono := logql.NewEngine(store)
	cold := logql.NewEngine(store)
	cold.SetFrontend(frontend.New(frontend.Config{CacheBytes: -1, Now: farFuture}))
	warm := logql.NewEngine(store)
	warm.SetFrontend(frontend.New(frontend.Config{Now: farFuture}))

	// Golden guard: the three paths must agree before timing means anything.
	want, err := mono.QueryRange(q, start, end, time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	for name, eng := range map[string]*logql.Engine{"cold": cold, "warm": warm} {
		got, err := eng.QueryRange(q, start, end, time.Minute)
		if err != nil || fmt.Sprintf("%+v", want) != fmt.Sprintf("%+v", got) {
			b.Fatalf("%s result differs from monolithic (%v)", name, err)
		}
	}

	b.Run("mono", run(mono, false))
	b.Run("cold", run(cold, false))
	b.Run("warm", run(warm, true))
}

// E7 / Fig. 8: the switch pattern query over 10k events.
func BenchmarkFig8Query(b *testing.B) {
	store := loki.NewStore(loki.DefaultLimits())
	ls := labels.FromStrings("app", "fabric_manager_monitor", "cluster", "perlmutter")
	entries := make([]loki.Entry, 10000)
	for i := range entries {
		entries[i] = loki.Entry{
			Timestamp: int64(i) * 1e6,
			Line:      fmt.Sprintf("[critical] problem:fm_switch_offline, xname:x1002c%dr%db0, state:UNKNOWN", i%8, i%64/8),
		}
	}
	if err := store.Push([]loki.PushStream{{Labels: ls, Entries: entries}}); err != nil {
		b.Fatal(err)
	}
	eng := logql.NewEngine(store)
	expr, err := logql.ParseMetricExpr(`sum(count_over_time({app="fabric_manager_monitor"} |= "fm_switch_offline" | pattern "[<sev>] problem:<problem>, xname:<xname>, state:<state>" [60m])) by (xname, state)`)
	if err != nil {
		b.Fatal(err)
	}
	ctx, sc := stats.NewContext(context.Background())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vec, err := eng.InstantContext(ctx, expr, int64(time.Hour))
		if err != nil || len(vec) != 64 {
			b.Fatalf("%d %v", len(vec), err)
		}
	}
	b.StopTimer()
	snap := sc.Snapshot()
	b.ReportMetric(float64(snap.Summary.TotalBytesProcessed)/float64(b.N), "bytes-scanned")
	if total := snap.Store.CacheHits + snap.Store.CacheMisses; total > 0 {
		b.ReportMetric(float64(snap.Store.CacheHits)/float64(total), "cache-hit-ratio")
	}
}

// C7: wall-clock cost of one full pipeline evaluation cycle — collect,
// forward, poll, scrape, evaluate both rule engines, flush. The report
// includes the pipeline's own obs counters so a run shows how much work
// each tick actually did.
func BenchmarkPipelineTick(b *testing.B) {
	p, err := core.New(core.Options{LogRules: []ruler.Rule{experiments.LeakRule, experiments.SwitchRule}})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	now := time.Date(2022, 3, 3, 0, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(time.Second)
		if err := p.Tick(now); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fams := p.Gather()
	n := float64(b.N)
	b.ReportMetric(obs.Value(fams, "shastamon_hms_events_collected_total")/n, "events/tick")
	b.ReportMetric(obs.Value(fams, "shastamon_hms_samples_collected_total")/n, "samples/tick")
	b.ReportMetric(obs.Value(fams, "shastamon_core_records_forwarded_total")/n, "records/tick")
	b.ReportMetric(obs.Value(fams, "shastamon_ruler_alerts_fired_total")+
		obs.Value(fams, "shastamon_vmalert_alerts_fired_total"), "alerts-fired")
}

// Alertmanager grouping fan-in: many alerts, few groups.
func BenchmarkAlertmanagerFanout(b *testing.B) {
	rcv := receiverFunc("null")
	now := time.Unix(0, 0)
	m, err := alertmanager.New(alertmanager.Config{
		Route:     &alertmanager.Route{Receiver: "null", GroupWait: time.Nanosecond, GroupBy: []string{"severity"}},
		Receivers: []alertmanager.Receiver{rcv},
		Now:       func() time.Time { return now },
	})
	if err != nil {
		b.Fatal(err)
	}
	sevs := []string{"critical", "warning", "info"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Receive(alertmanager.Alert{Labels: labels.FromStrings(
			"alertname", "X", "severity", sevs[i%3], "xname", fmt.Sprintf("x%d", i%512))})
		if i%256 == 255 {
			now = now.Add(time.Second)
			m.Flush()
		}
	}
}

type receiverFunc string

func (r receiverFunc) Name() string                         { return string(r) }
func (receiverFunc) Notify(alertmanager.Notification) error { return nil }

// Ablation: Loki's design premise — selecting one stream by label beats
// grepping every stream's content. 64 streams, query one host's errors.
func BenchmarkIndexedVsGrep(b *testing.B) {
	store := loki.NewStore(loki.DefaultLimits())
	gen := syslogd.NewGenerator(8, benchHosts(64)...)
	for i := 0; i < 64*500; i++ {
		m := gen.Next(time.Unix(0, int64(i)*1e6))
		err := store.Push([]loki.PushStream{{
			Labels:  labels.FromStrings("hostname", m.Hostname, "data_type", "syslog"),
			Entries: []loki.Entry{{Timestamp: m.Timestamp.UnixNano(), Line: m.Hostname + " " + m.App + ": " + m.Text}},
		}})
		if err != nil {
			b.Fatal(err)
		}
	}
	eng := logql.NewEngine(store)
	b.Run("indexed-label-select", func(b *testing.B) {
		expr, _ := logql.ParseLogExpr(`{hostname="nid000001"} |= "sshd"`)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.SelectLogs(expr, 0, 1<<62); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-grep", func(b *testing.B) {
		expr, _ := logql.ParseLogExpr(`{data_type="syslog"} |= "nid000001" |= "sshd"`)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.SelectLogs(expr, 0, 1<<62); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation: Loki's label-index-plus-grep versus the Elasticsearch-style
// full-text index OMNI also runs. Full-text pays ~10x at write time to
// answer rare-term queries without scanning; Loki writes cheaply and
// scans on read. The paper's OMNI keeps both.
func BenchmarkLogIndexDesigns(b *testing.B) {
	const total = 32000
	gen := syslogd.NewGenerator(13, benchHosts(64)...)
	lines := make([]syslogd.Message, total)
	for i := range lines {
		lines[i] = gen.Next(time.Unix(0, int64(i)*1e6))
	}
	b.Run("write/loki", func(b *testing.B) {
		store := loki.NewStore(loki.DefaultLimits())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := lines[i%total]
			_ = store.Push([]loki.PushStream{{
				Labels:  labels.FromStrings("hostname", m.Hostname, "data_type", "syslog"),
				Entries: []loki.Entry{{Timestamp: int64(i) * 1e6, Line: m.Text}},
			}})
		}
	})
	b.Run("write/fulltext", func(b *testing.B) {
		ix := eventsearch.New()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := lines[i%total]
			ix.Add(time.Unix(0, int64(i)*1e6), nil, m.Hostname+" "+m.App+": "+m.Text)
		}
	})
	// Read side: find the rare GPFS failure among routine noise.
	store := loki.NewStore(loki.DefaultLimits())
	ix := eventsearch.New()
	for i, m := range lines {
		text := m.Hostname + " " + m.App + ": " + m.Text
		if i%4000 == 0 {
			text = m.Hostname + " mmfs: GPFS: Disk failure detected on rg001"
		}
		_ = store.Push([]loki.PushStream{{
			Labels:  labels.FromStrings("data_type", "syslog"),
			Entries: []loki.Entry{{Timestamp: int64(i) * 1e6, Line: text}},
		}})
		ix.Add(time.Unix(0, int64(i)*1e6), nil, text)
	}
	eng := logql.NewEngine(store)
	b.Run("read/loki-grep", func(b *testing.B) {
		expr, _ := logql.ParseLogExpr(`{data_type="syslog"} |= "Disk failure"`)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			streams, err := eng.SelectLogs(expr, 0, 1<<62)
			if err != nil || len(streams) == 0 {
				b.Fatalf("%v %v", streams, err)
			}
		}
	})
	b.Run("read/fulltext-term", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hits := ix.Search(eventsearch.Query{Terms: []string{"disk", "failure"}, Limit: 100})
			if len(hits) != 8 {
				b.Fatalf("%d", len(hits))
			}
		}
	})
}

// Ablation: chunk target size. Bigger chunks amortise sealing cost and
// compress better ("Loki prefers handling bigger but fewer chunks") at
// the price of more uncompressed head memory.
func BenchmarkChunkTargetSize(b *testing.B) {
	for _, target := range []int{64 << 10, 256 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("%dKiB", target>>10), func(b *testing.B) {
			store := loki.NewStore(loki.Limits{
				MaxLabelNamesPerStream: 10, MaxLineSize: 1 << 20,
				ChunkOptions: chunkenc.Options{TargetSize: target},
			})
			gen := syslogd.NewGenerator(14, benchHosts(8)...)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := gen.Next(time.Unix(0, int64(i)*1e6))
				err := store.Push([]loki.PushStream{{
					Labels:  labels.FromStrings("hostname", m.Hostname),
					Entries: []loki.Entry{{Timestamp: int64(i) * 1e6, Line: m.Text}},
				}})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := store.Flush(); err != nil {
				b.Fatal(err)
			}
			st := store.Stats()
			b.ReportMetric(float64(st.Chunks), "chunks")
			if st.CompressedBytes > 0 {
				b.ReportMetric(float64(st.RawBytes)/float64(st.CompressedBytes), "compression-ratio")
			}
		})
	}
}
