package tsdb

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"syscall"
	"testing"
	"time"

	"shastamon/internal/chaos"
	"shastamon/internal/labels"
	"shastamon/internal/wal"
)

func seriesLabels(i int) labels.Labels {
	return labels.FromStrings(MetricNameLabel, "node_load1", "host", fmt.Sprintf("nid%04d", i))
}

func appendAll(t *testing.T, db *DB, series, samples int) {
	t.Helper()
	for ts := 0; ts < samples; ts++ {
		for s := 0; s < series; s++ {
			if err := db.Append(seriesLabels(s), int64(ts)*1000, float64(s)+float64(ts)/100); err != nil {
				t.Fatalf("append: %v", err)
			}
		}
	}
}

func openDurableDB(t *testing.T, dir string, opt wal.Options) (*DB, RecoveryInfo) {
	t.Helper()
	db := NewSharded(2)
	info, err := db.EnableDurability(dir, opt)
	if err != nil {
		t.Fatalf("EnableDurability: %v", err)
	}
	return db, info
}

func assertDBsMatch(t *testing.T, got, want *DB) {
	t.Helper()
	g := got.Select(nil, 0, 1<<62)
	w := want.Select(nil, 0, 1<<62)
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("recovered series differ: got %d, want %d", len(g), len(w))
	}
	gs, ws := got.Stats(), want.Stats()
	gs.Dropped, ws.Dropped = 0, 0
	if gs != ws {
		t.Fatalf("recovered stats differ: got %+v want %+v", gs, ws)
	}
}

// TestTSDBCrashRecovery: a head abandoned without Shutdown recovers from
// WAL replay with identical samples and counters.
func TestTSDBCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	db1, info := openDurableDB(t, dir, wal.Options{Fsync: wal.FsyncAlways})
	if info.Checkpoint || info.Replayed != 0 {
		t.Fatalf("fresh dir: %+v", info)
	}
	appendAll(t, db1, 8, 50)

	ref := NewSharded(2)
	appendAll(t, ref, 8, 50)

	db2, info := openDurableDB(t, dir, wal.Options{})
	if info.Clean || info.Replayed != 8*50 {
		t.Fatalf("crash recovery: %+v", info)
	}
	assertDBsMatch(t, db2, ref)
}

// TestTSDBCheckpointBoundsReplay: post-checkpoint recovery restores the
// snapshot and replays only post-cut records.
func TestTSDBCheckpointBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	db1, _ := openDurableDB(t, dir, wal.Options{Fsync: wal.FsyncAlways})
	appendAll(t, db1, 4, 30)
	if err := db1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for ts := 30; ts < 60; ts++ {
		for s := 0; s < 4; s++ {
			if err := db1.Append(seriesLabels(s), int64(ts)*1000, float64(ts)); err != nil {
				t.Fatal(err)
			}
		}
	}

	db2, info := openDurableDB(t, dir, wal.Options{})
	if !info.Checkpoint || info.Replayed != 4*30 {
		t.Fatalf("bounded replay: %+v", info)
	}
	if got := db2.Stats().Samples; got != 4*60 {
		t.Fatalf("recovered %d samples, want %d", got, 4*60)
	}
}

// TestTSDBCleanShutdown: CLEAN marker skips replay entirely.
func TestTSDBCleanShutdown(t *testing.T) {
	dir := t.TempDir()
	db1, _ := openDurableDB(t, dir, wal.Options{})
	appendAll(t, db1, 5, 40)
	if err := db1.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, wal.CleanMarker)); err != nil {
		t.Fatalf("CLEAN marker missing: %v", err)
	}

	ref := NewSharded(2)
	appendAll(t, ref, 5, 40)

	db2, info := openDurableDB(t, dir, wal.Options{})
	if !info.Clean || info.Replayed != 0 {
		t.Fatalf("clean restart: %+v", info)
	}
	assertDBsMatch(t, db2, ref)
}

// TestTSDBCrashAfterCleanRestart mirrors the log store's
// generation-boundary regression: stale checkpoint cuts must not prune
// the fresh segments written after a clean restart.
func TestTSDBCrashAfterCleanRestart(t *testing.T) {
	dir := t.TempDir()
	always := wal.Options{Fsync: wal.FsyncAlways}

	db1, _ := openDurableDB(t, dir, always)
	appendAll(t, db1, 4, 30)
	if err := db1.Shutdown(); err != nil { // checkpoints, records cuts ≥ 2
		t.Fatal(err)
	}

	db2, info := openDurableDB(t, dir, always)
	if !info.Clean {
		t.Fatalf("expected clean restart: %+v", info)
	}
	for ts := 30; ts < 60; ts++ {
		for s := 0; s < 4; s++ {
			if err := db2.Append(seriesLabels(s), int64(ts)*1000, float64(s)+float64(ts)/100); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Crash: second generation abandoned without Shutdown.

	ref := NewSharded(2)
	appendAll(t, ref, 4, 60)

	db3, info := openDurableDB(t, dir, wal.Options{})
	if info.Clean || info.Replayed != 4*30 {
		t.Fatalf("post-clean-restart crash recovery: %+v (want %d replayed)", info, 4*30)
	}
	assertDBsMatch(t, db3, ref)
}

// TestTSDBDiskFaultDegrades mirrors the log store's degradation contract
// for the metrics head.
func TestTSDBDiskFaultDegrades(t *testing.T) {
	dir := t.TempDir()
	inj := chaos.New(11)
	var mu sync.Mutex
	now := time.Unix(2000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }

	db, _ := openDurableDB(t, dir, wal.Options{Fsync: wal.FsyncAlways, WrapWriter: inj.WriterWrapper("disk.write"), Now: clock})
	appendAll(t, db, 3, 10)
	inj.Set("disk.write", chaos.Fault{ErrProb: 1, Err: syscall.ENOSPC})
	for ts := 10; ts < 40; ts++ {
		for s := 0; s < 3; s++ {
			if err := db.Append(seriesLabels(s), int64(ts)*1000, 1); err != nil {
				t.Fatalf("ingest blocked by disk fault: %v", err)
			}
		}
	}
	st := db.WALStats()
	if st.Degraded != 1 || st.Skipped == 0 {
		t.Fatalf("degraded phase: %+v", st)
	}
	inj.ClearAll()
	mu.Lock()
	now = now.Add(11 * time.Second)
	mu.Unlock()
	for ts := 40; ts < 50; ts++ {
		for s := 0; s < 3; s++ {
			if err := db.Append(seriesLabels(s), int64(ts)*1000, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	st2 := db.WALStats()
	if st2.Degraded != 0 || st2.Appends <= st.Appends {
		t.Fatalf("healed phase: %+v -> %+v", st, st2)
	}
	if got := db.Stats().Samples; got != int64(3*50) {
		t.Fatalf("samples lost in memory: %d", got)
	}
}
