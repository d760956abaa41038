package core

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"shastamon/internal/chaos"
	"shastamon/internal/omni"
	"shastamon/internal/ruler"
	"shastamon/internal/wal"
)

// copyTree copies src into dst — the crash image: whatever bytes are on
// disk at the instant of the "SIGKILL", with no shutdown hooks run.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatalf("copy %s: %v", src, err)
	}
}

// TestCrashRecoveryPipeline is the end-to-end crash drill: a durable
// pipeline ingests real telemetry (leak event included), the data
// directory is snapshotted mid-flight — the on-disk state an abrupt kill
// would leave, CLEAN marker absent — and a second pipeline started from
// that snapshot must answer the same queries with byte-identical results.
func TestCrashRecoveryPipeline(t *testing.T) {
	dir := t.TempDir()
	p := newPipeline(t, Options{
		LogRules:  []ruler.Rule{leakRule},
		Warehouse: omni.Config{DataDir: dir, WAL: wal.Options{Fsync: wal.FsyncAlways}},
	})
	t0 := time.Date(2022, 3, 3, 1, 46, 0, 0, time.UTC)
	mustTick(t, p, t0)
	leakTime := t0.Add(2 * time.Minute)
	if err := p.Cluster.InjectLeak("x1203c1b0", "A", "Front", leakTime); err != nil {
		t.Fatal(err)
	}
	mustTick(t, p, leakTime)
	mustTick(t, p, leakTime.Add(61*time.Second))
	mustTick(t, p, leakTime.Add(62*time.Second))

	const logQ = `{data_type="redfish_event"} |= "CabinetLeakDetected"`
	wantLogs, err := p.Warehouse.QueryLogs(logQ, 0, leakTime.Add(time.Hour).UnixNano())
	if err != nil || len(wantLogs) == 0 {
		t.Fatalf("pre-crash leak query: %v %v", wantLogs, err)
	}
	wantMetrics := p.Warehouse.Metrics.Select(nil, 0, 1<<62)
	wantStats := p.Warehouse.Stats()

	// Snapshot the live directory: p has NOT shut down, so the copy holds
	// open WAL tails and no CLEAN marker — exactly what a kill leaves.
	crashDir := t.TempDir()
	copyTree(t, dir, crashDir)

	p2 := newPipeline(t, Options{LogRules: []ruler.Rule{leakRule}, Warehouse: omni.Config{DataDir: crashDir}})
	rec, ok := p2.Warehouse.Recovery()
	if !ok || rec.Logs.Clean || rec.Metrics.Clean || rec.Replayed() == 0 {
		t.Fatalf("expected dirty recovery with replay: %+v (ok=%v)", rec, ok)
	}
	gotLogs, err := p2.Warehouse.QueryLogs(logQ, 0, leakTime.Add(time.Hour).UnixNano())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotLogs, wantLogs) {
		t.Fatal("recovered leak-event query differs from pre-crash result")
	}
	if got := p2.Warehouse.Metrics.Select(nil, 0, 1<<62); !reflect.DeepEqual(got, wantMetrics) {
		t.Fatal("recovered metric series differ from pre-crash state")
	}
	// Store-level stats must match exactly. (The façade counters are
	// resynced from store contents at Open, so they additionally cover
	// scrape-path samples that never passed through IngestMetric.)
	gotStats := p2.Warehouse.Stats()
	if gotStats.LogStore != wantStats.LogStore || gotStats.MetricStore != wantStats.MetricStore {
		t.Fatalf("store stats not restored: got %+v want %+v", gotStats, wantStats)
	}
}

// TestCrashRecoveryCleanRestart: a pipeline closed properly leaves CLEAN
// markers, and a successor on the same directory starts replay-free with
// all data intact.
func TestCrashRecoveryCleanRestart(t *testing.T) {
	dir := t.TempDir()
	p, err := New(Options{Cluster: smallCluster(), Warehouse: omni.Config{DataDir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close) // Close is idempotent; the explicit call below is the test

	t0 := time.Date(2022, 3, 3, 2, 0, 0, 0, time.UTC)
	for i := 0; i < 3; i++ {
		mustTick(t, p, t0.Add(time.Duration(i)*5*time.Second))
	}
	wantStats := p.Warehouse.Stats()
	p.Close() // Close flushes durable state and writes CLEAN

	p2 := newPipeline(t, Options{Warehouse: omni.Config{DataDir: dir}})
	rec, _ := p2.Warehouse.Recovery()
	if !rec.Logs.Clean || !rec.Metrics.Clean || rec.Replayed() != 0 {
		t.Fatalf("clean restart should skip replay: %+v", rec)
	}
	gotStats := p2.Warehouse.Stats()
	if gotStats.LogStore != wantStats.LogStore || gotStats.MetricStore != wantStats.MetricStore {
		t.Fatalf("clean restart lost data: got %+v want %+v", gotStats, wantStats)
	}
}

// TestWALDegradedMetaAlert: the disk fills mid-run (ENOSPC on every WAL
// write). Ingest must never block — ticks stay clean, counters keep
// growing — while the ShastamonWALDegraded meta-alert reaches Slack
// through the normal Alertmanager path. Clearing the fault and waiting
// out the breaker window resumes WAL appends.
func TestWALDegradedMetaAlert(t *testing.T) {
	inj := chaos.New(5)
	dir := t.TempDir()
	p := newPipeline(t, Options{
		LogRules:   []ruler.Rule{leakRule},
		MetaAlerts: true,
		Warehouse: omni.Config{
			DataDir: dir,
			WAL:     wal.Options{Fsync: wal.FsyncAlways, WrapWriter: inj.WriterWrapper("disk.write")},
			// Keep the checkpoint stage out of the fault window.
			CheckpointEvery: time.Hour,
		},
	})
	t0 := time.Date(2022, 3, 3, 3, 0, 0, 0, time.UTC)
	mustTick(t, p, t0)
	healthyStats := p.Warehouse.Stats()

	inj.Set("disk.write", chaos.Fault{ErrProb: 1, Err: syscall.ENOSPC})
	deadline := t0.Add(3 * time.Minute)
	var ts time.Time
	found := false
	for ts = t0.Add(5 * time.Second); ts.Before(deadline); ts = ts.Add(5 * time.Second) {
		mustTick(t, p, ts) // a failing disk must never fail a tick
		if slackTitles(p)["ShastamonWALDegraded"] > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("ShastamonWALDegraded never reached Slack; titles = %v", slackTitles(p))
	}
	if !p.Warehouse.WALDegraded() {
		t.Fatal("warehouse not marked degraded")
	}
	// Ingest continued throughout the outage. (Core ticks only produce
	// metric traffic without an injected hardware fault, so the metrics
	// store is where stalling would show.)
	if st := p.Warehouse.Stats(); st.MetricStore.Samples <= healthyStats.MetricStore.Samples {
		t.Fatalf("ingest stalled during disk outage: %+v -> %+v", healthyStats, st)
	}
	// The self-alert names the degraded store.
	named := false
	for _, m := range p.Slack.Messages() {
		for _, att := range m.Attachments {
			if att.Title == "ShastamonWALDegraded" &&
				(strings.Contains(att.Text, "logs") || strings.Contains(att.Text, "metrics")) {
				named = true
			}
		}
	}
	if !named {
		t.Fatal("meta-alert does not identify the degraded store")
	}

	// Disk heals; after the 10s open window a probe append succeeds and
	// the warehouse leaves degraded mode.
	inj.ClearAll()
	before := p.Warehouse.Metrics.WALStats().Appends
	for i := 1; i <= 4; i++ {
		mustTick(t, p, ts.Add(time.Duration(i)*6*time.Second))
	}
	if p.Warehouse.WALDegraded() {
		t.Fatalf("still degraded after heal: logs=%+v metrics=%+v",
			p.Warehouse.Logs.WALStats(), p.Warehouse.Metrics.WALStats())
	}
	if after := p.Warehouse.Metrics.WALStats().Appends; after <= before {
		t.Fatalf("WAL appends did not resume: %d -> %d", before, after)
	}
	// The united breaker gauge saw the WAL breaker close again.
	if v, ok := queryLabeled(t, p, "shastamon_breaker_state", ts.Add(24*time.Second).UnixMilli(), "dependency", "wal:metrics"); !ok || v != 0 {
		t.Fatalf("breaker_state{dependency=wal:metrics} = %v (ok=%v), want 0", v, ok)
	}
}
