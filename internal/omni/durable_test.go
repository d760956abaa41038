package omni

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"syscall"
	"testing"
	"time"

	"shastamon/internal/chaos"
	"shastamon/internal/chunkenc"
	"shastamon/internal/labels"
	"shastamon/internal/loki"
	"shastamon/internal/obs"
	"shastamon/internal/wal"
)

func durableConfig(dir string, opt wal.Options) Config {
	limits := loki.DefaultLimits()
	limits.ChunkOptions = chunkenc.Options{BlockSize: 512, TargetSize: 4 * 1024}
	return Config{
		LokiLimits: limits,
		Shards:     2,
		DataDir:    dir,
		WAL:        opt,
	}
}

// fillWarehouse ingests the same deterministic log + metric load every
// caller compares against.
func fillWarehouse(t *testing.T, w *Warehouse, entries int) {
	t.Helper()
	for e := 0; e < entries; e++ {
		for s := 0; s < 4; s++ {
			ls := labels.FromStrings("job", "crash", "stream", fmt.Sprintf("s%02d", s))
			if err := w.IngestLogs([]loki.PushStream{{Labels: ls, Entries: []loki.Entry{{
				Timestamp: int64(e) * 1e6,
				Line:      fmt.Sprintf("stream=%d entry=%04d payload=%s", s, e, "x123456789abcdef"),
			}}}}); err != nil {
				t.Fatalf("ingest logs: %v", err)
			}
		}
		if err := w.IngestMetric("node_load1", labels.FromStrings("host", "nid0001"),
			int64(e)*1000, float64(e)); err != nil {
			t.Fatalf("ingest metric: %v", err)
		}
	}
}

// snapshotQueries runs the reference queries whose results must be
// byte-identical across a crash/recover cycle.
func snapshotQueries(t *testing.T, w *Warehouse) (logs, metrics any) {
	t.Helper()
	streams, err := w.QueryLogs(`{job="crash"}`, 0, 1<<62)
	if err != nil {
		t.Fatalf("query logs: %v", err)
	}
	return streams, w.Metrics.Select(nil, 0, 1<<62)
}

func mustOpen(t *testing.T, cfg Config) *Warehouse {
	t.Helper()
	w, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return w
}

// TestCrashRecoveryWarehouse is the warehouse-level crash e2e: ingest
// through the façade, abandon the warehouse without Shutdown (the
// SIGKILL image), reopen the same data directory and demand
// byte-identical query results plus resynced ingest counters.
func TestCrashRecoveryWarehouse(t *testing.T) {
	dir := t.TempDir()
	w1 := mustOpen(t, durableConfig(dir, wal.Options{Fsync: wal.FsyncAlways}))
	if rec, ok := w1.Recovery(); !ok || rec.Replayed() != 0 {
		t.Fatalf("fresh dir recovery: %+v %v", rec, ok)
	}
	fillWarehouse(t, w1, 300)
	wantLogs, wantMetrics := snapshotQueries(t, w1)
	wantStats := w1.Stats()

	// No Shutdown: the directory is exactly what a SIGKILL leaves.
	w2 := mustOpen(t, durableConfig(dir, wal.Options{}))
	rec, _ := w2.Recovery()
	if rec.Logs.Clean || rec.Metrics.Clean || rec.Replayed() == 0 {
		t.Fatalf("expected dirty recovery with replay: %+v", rec)
	}
	gotLogs, gotMetrics := snapshotQueries(t, w2)
	if !reflect.DeepEqual(gotLogs, wantLogs) {
		t.Fatal("recovered log query results differ from pre-crash results")
	}
	if !reflect.DeepEqual(gotMetrics, wantMetrics) {
		t.Fatal("recovered metric query results differ from pre-crash results")
	}
	gotStats := w2.Stats()
	if gotStats.LogMessages != wantStats.LogMessages || gotStats.Samples != wantStats.Samples {
		t.Fatalf("counters not resynced: got %+v want %+v", gotStats, wantStats)
	}

	// The WAL self-metrics are exported, per store.
	fams := w2.ObsMetrics().Gather()
	byName := map[string]bool{}
	for _, f := range fams {
		byName[f.Name] = true
	}
	for _, name := range []string{"shastamon_wal_appends_total", "shastamon_wal_replayed_records_total", "shastamon_wal_degraded"} {
		if !byName[name] {
			t.Fatalf("family %s missing from warehouse registry", name)
		}
	}
}

// TestCrashRecoveryTornTail corrupts the tail of every log-store WAL
// segment before reopening: everything before the corruption survives
// and the corruption counter reports the dropped tail.
func TestCrashRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	w1 := mustOpen(t, durableConfig(dir, wal.Options{Fsync: wal.FsyncAlways}))
	fillWarehouse(t, w1, 200)

	// Append garbage to the last segment of each logs shard — a torn
	// final record plus trailing junk.
	segs, err := filepath.Glob(filepath.Join(dir, "logs", "wal", "shard-*", "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments found: %v", err)
	}
	sort.Strings(segs)
	last := map[string]string{}
	for _, seg := range segs {
		last[filepath.Dir(seg)] = seg
	}
	for _, seg := range last {
		f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	w2 := mustOpen(t, durableConfig(dir, wal.Options{}))
	rec, _ := w2.Recovery()
	if rec.Logs.Corrupt == 0 {
		t.Fatalf("corrupt tail not counted: %+v", rec)
	}
	if st := w2.Logs.WALStats(); st.Corrupt == 0 {
		t.Fatalf("corruption counter not carried into stats: %+v", st)
	}
	// All complete records are intact: every entry ingested before the
	// garbage was a complete frame, so nothing is lost.
	gotLogs, _ := snapshotQueries(t, w2)
	wantLogs, _ := snapshotQueries(t, w1)
	if !reflect.DeepEqual(gotLogs, wantLogs) {
		t.Fatal("pre-corruption data lost during torn-tail recovery")
	}
}

// TestCrashRecoveryCleanShutdown: Shutdown leaves CLEAN markers, the
// next Open skips replay, and MaybeCheckpoint honours its interval.
func TestCrashRecoveryCleanShutdown(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir, wal.Options{})
	cfg.CheckpointEvery = time.Minute
	w1 := mustOpen(t, cfg)
	fillWarehouse(t, w1, 100)

	base := time.Unix(5000, 0)
	if err := w1.MaybeCheckpoint(base); err != nil { // arms the clock
		t.Fatal(err)
	}
	if err := w1.MaybeCheckpoint(base.Add(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if n := w1.Logs.WALStats().Checkpoints; n != 0 {
		t.Fatalf("checkpointed before the interval elapsed: %d", n)
	}
	if err := w1.MaybeCheckpoint(base.Add(61 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if n := w1.Logs.WALStats().Checkpoints; n != 1 {
		t.Fatalf("interval checkpoint missing: %d", n)
	}

	wantLogs, wantMetrics := snapshotQueries(t, w1)
	if err := w1.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for _, store := range []string{"logs", "metrics"} {
		if _, err := os.Stat(filepath.Join(dir, store, "CLEAN")); err != nil {
			t.Fatalf("CLEAN marker missing for %s: %v", store, err)
		}
	}

	w2 := mustOpen(t, durableConfig(dir, wal.Options{}))
	rec, _ := w2.Recovery()
	if !rec.Logs.Clean || !rec.Metrics.Clean || rec.Replayed() != 0 {
		t.Fatalf("clean restart should skip replay: %+v", rec)
	}
	gotLogs, gotMetrics := snapshotQueries(t, w2)
	if !reflect.DeepEqual(gotLogs, wantLogs) || !reflect.DeepEqual(gotMetrics, wantMetrics) {
		t.Fatal("clean restart lost data")
	}
}

// TestCrashRecoveryDiskFaultDegrades: persistent ENOSPC on the WAL never
// blocks warehouse ingest — the breaker opens, the degraded gauge rises,
// and once the disk heals and the open window passes, appends resume.
func TestCrashRecoveryDiskFaultDegrades(t *testing.T) {
	dir := t.TempDir()
	inj := chaos.New(7)
	var mu sync.Mutex
	now := time.Unix(9000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }

	w := mustOpen(t, durableConfig(dir, wal.Options{Fsync: wal.FsyncAlways, WrapWriter: inj.WriterWrapper("disk.write"), Now: clock}))
	fillWarehouse(t, w, 50)
	inj.Set("disk.write", chaos.Fault{ErrProb: 1, Err: syscall.ENOSPC})
	for e := 50; e < 120; e++ {
		ls := labels.FromStrings("job", "crash", "stream", "s00")
		if err := w.IngestLogs([]loki.PushStream{{Labels: ls, Entries: []loki.Entry{{
			Timestamp: int64(e) * 1e6, Line: "during outage",
		}}}}); err != nil {
			t.Fatalf("ingest blocked by disk fault: %v", err)
		}
		if err := w.IngestMetric("node_load1", labels.FromStrings("host", "nid0001"),
			int64(e)*1000, 1); err != nil {
			t.Fatalf("metric ingest blocked by disk fault: %v", err)
		}
	}
	if !w.WALDegraded() {
		t.Fatalf("warehouse not degraded: logs=%+v metrics=%+v", w.Logs.WALStats(), w.Metrics.WALStats())
	}
	fams := w.ObsMetrics().Gather()
	for _, store := range []string{"logs", "metrics"} {
		if v := obs.Value(fams, "shastamon_wal_degraded", "store", store); v != 1 {
			t.Fatalf("shastamon_wal_degraded{store=%q} = %v, want 1", store, v)
		}
	}

	inj.ClearAll()
	mu.Lock()
	now = now.Add(11 * time.Second)
	mu.Unlock()
	before := w.Logs.WALStats().Appends
	for e := 120; e < 130; e++ {
		ls := labels.FromStrings("job", "crash", "stream", "s00")
		if err := w.IngestLogs([]loki.PushStream{{Labels: ls, Entries: []loki.Entry{{
			Timestamp: int64(e) * 1e6, Line: "after heal",
		}}}}); err != nil {
			t.Fatal(err)
		}
		if err := w.IngestMetric("node_load1", labels.FromStrings("host", "nid0001"),
			int64(e)*1000, 1); err != nil {
			t.Fatal(err)
		}
	}
	if w.WALDegraded() {
		t.Fatalf("still degraded after heal: logs=%+v metrics=%+v", w.Logs.WALStats(), w.Metrics.WALStats())
	}
	if after := w.Logs.WALStats().Appends; after <= before {
		t.Fatalf("appends did not resume: %d -> %d", before, after)
	}
}
