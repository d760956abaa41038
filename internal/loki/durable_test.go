package loki

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
	"shastamon/internal/chunkenc"
	"shastamon/internal/labels"
	"shastamon/internal/wal"
)

// smallChunks forces frequent block cuts and chunk seals so recovery
// exercises sealed-chunk spill, not just head replay.
var smallChunks = chunkenc.Options{BlockSize: 512, TargetSize: 4 * 1024}

func durableLimits() Limits {
	l := DefaultLimits()
	l.Shards = 2
	l.ChunkOptions = smallChunks
	return l
}

func testBatches(streams, entriesPer int) [][]PushStream {
	var batches [][]PushStream
	for e := 0; e < entriesPer; e++ {
		var batch []PushStream
		for s := 0; s < streams; s++ {
			batch = append(batch, PushStream{
				Labels: labels.FromStrings("job", "crash", "stream", fmt.Sprintf("s%02d", s)),
				Entries: []Entry{{
					Timestamp: int64(e) * 1e6,
					Line:      fmt.Sprintf("stream=%d entry=%04d payload=%s", s, e, "x123456789abcdef"),
				}},
			})
		}
		batches = append(batches, batch)
	}
	return batches
}

func pushAll(t *testing.T, s *Store, batches [][]PushStream) {
	t.Helper()
	for _, b := range batches {
		if err := s.Push(b); err != nil {
			t.Fatalf("push: %v", err)
		}
	}
}

func selectAll(t *testing.T, s *Store) []SelectedStream {
	t.Helper()
	out, err := s.Select(nil, 0, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func openDurable(t *testing.T, dir string, opt wal.Options) (*Store, RecoveryInfo) {
	t.Helper()
	s := NewStore(durableLimits())
	info, err := s.EnableDurability(dir, opt)
	if err != nil {
		t.Fatalf("EnableDurability: %v", err)
	}
	return s, info
}

func assertStoresMatch(t *testing.T, got, want *Store) {
	t.Helper()
	gotSel, wantSel := selectAll(t, got), selectAll(t, want)
	if !reflect.DeepEqual(gotSel, wantSel) {
		t.Fatalf("recovered query results differ: got %d streams, want %d", len(gotSel), len(wantSel))
	}
	gs, ws := got.Stats(), want.Stats()
	gs.DiscardedOOO, ws.DiscardedOOO = 0, 0
	gs.DiscardedTooLong, ws.DiscardedTooLong = 0, 0
	if gs != ws {
		t.Fatalf("recovered stats differ:\n got %+v\nwant %+v", gs, ws)
	}
}

// TestDurableCrashRecovery is the core contract: a store abandoned
// mid-flight (no Shutdown — the crash case) recovers from WAL alone with
// query results and counters identical to an uninterrupted run.
func TestDurableCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	batches := testBatches(6, 120)

	s1, info := openDurable(t, dir, wal.Options{Fsync: wal.FsyncAlways})
	if info.Checkpoint || info.Clean || info.Replayed != 0 {
		t.Fatalf("fresh dir recovery: %+v", info)
	}
	pushAll(t, s1, batches)
	// Crash: s1 is abandoned without Shutdown or Close.

	ref := NewStore(durableLimits())
	pushAll(t, ref, batches)

	s2, info := openDurable(t, dir, wal.Options{})
	if info.Clean || info.Replayed == 0 {
		t.Fatalf("crash recovery: %+v", info)
	}
	assertStoresMatch(t, s2, ref)
}

// TestDurableCheckpointBoundsReplay: after a checkpoint, recovery
// restores sealed state from the snapshot and replays only post-cut
// records.
func TestDurableCheckpointBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	batches := testBatches(4, 200)
	half := len(batches) / 2

	s1, _ := openDurable(t, dir, wal.Options{Fsync: wal.FsyncAlways})
	pushAll(t, s1, batches[:half])
	if err := s1.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	st := s1.WALStats()
	if st.Checkpoints != 1 || st.Spilled == 0 {
		t.Fatalf("checkpoint stats: %+v", st)
	}
	pushAll(t, s1, batches[half:])
	preCut := st.Appends

	ref := NewStore(durableLimits())
	pushAll(t, ref, batches)

	s2, info := openDurable(t, dir, wal.Options{})
	if !info.Checkpoint {
		t.Fatal("checkpoint not restored")
	}
	if info.Replayed == 0 || int64(info.Replayed) >= preCut+int64(half) {
		t.Fatalf("replay not bounded by checkpoint: replayed %d (pre-cut appends %d)", info.Replayed, preCut)
	}
	assertStoresMatch(t, s2, ref)
}

// TestDurableCleanShutdown: Shutdown leaves a CLEAN marker; the next open
// is a pure checkpoint load (no WAL replay) with identical results.
func TestDurableCleanShutdown(t *testing.T) {
	dir := t.TempDir()
	batches := testBatches(4, 100)

	s1, _ := openDurable(t, dir, wal.Options{})
	pushAll(t, s1, batches)
	if err := s1.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, wal.CleanMarker)); err != nil {
		t.Fatalf("CLEAN marker missing: %v", err)
	}

	ref := NewStore(durableLimits())
	pushAll(t, ref, batches)

	s2, info := openDurable(t, dir, wal.Options{})
	if !info.Clean || info.Replayed != 0 {
		t.Fatalf("clean restart replayed WAL: %+v", info)
	}
	assertStoresMatch(t, s2, ref)
	// The marker is consumed: a crash after this start must replay.
	if _, err := os.Stat(filepath.Join(dir, wal.CleanMarker)); !os.IsNotExist(err) {
		t.Fatal("CLEAN marker survived recovery")
	}
}

// TestDurableCrashAfterCleanRestart is the generation-boundary
// regression: a clean shutdown's checkpoint records WAL cuts, and the
// clean restart wipes the WAL so the next log restarts numbering at
// segment 1. A crash after that must not let the stale cuts prune the
// new generation's segments as "covered" — every record ingested after
// the clean restart has to survive the second recovery.
func TestDurableCrashAfterCleanRestart(t *testing.T) {
	dir := t.TempDir()
	always := wal.Options{Fsync: wal.FsyncAlways}
	batches := testBatches(4, 100)
	half := len(batches) / 2

	s1, _ := openDurable(t, dir, always)
	pushAll(t, s1, batches[:half])
	if err := s1.Shutdown(); err != nil { // checkpoints, records cuts ≥ 2
		t.Fatalf("shutdown: %v", err)
	}

	s2, info := openDurable(t, dir, always)
	if !info.Clean {
		t.Fatalf("expected clean restart: %+v", info)
	}
	pushAll(t, s2, batches[half:])
	// Crash: second generation abandoned without Shutdown.

	ref := NewStore(durableLimits())
	pushAll(t, ref, batches)

	s3, info := openDurable(t, dir, wal.Options{})
	if info.Clean || info.Replayed != half*4 {
		t.Fatalf("post-clean-restart crash recovery: %+v (want %d replayed)", info, half*4)
	}
	assertStoresMatch(t, s3, ref)
}

// TestDurableTornTail: garbage appended to a segment (the shape a crash
// mid-write leaves) is truncated away — data before the tear recovers
// and the corruption is counted.
func TestDurableTornTail(t *testing.T) {
	dir := t.TempDir()
	batches := testBatches(3, 60)

	s1, _ := openDurable(t, dir, wal.Options{Fsync: wal.FsyncAlways})
	pushAll(t, s1, batches)

	// Tear the tail of every shard's last segment.
	torn := 0
	for i := 0; i < 2; i++ {
		segs, err := filepath.Glob(filepath.Join(dir, wal.LogDirName, wal.ShardDirName(i), "*.wal"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("no segments for shard %d: %v", i, err)
		}
		f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{0x13, 0x37, 0xde, 0xad}); err != nil {
			t.Fatal(err)
		}
		f.Close()
		torn++
	}

	ref := NewStore(durableLimits())
	pushAll(t, ref, batches)

	s2, _ := openDurable(t, dir, wal.Options{})
	if got := s2.WALStats().Corrupt; got < int64(torn) {
		t.Fatalf("corrupt records counted = %d, want >= %d", got, torn)
	}
	assertStoresMatch(t, s2, ref)
}

// TestDurableDiskFaultDegrades: persistent ENOSPC on the WAL trips the
// breaker; ingest keeps succeeding in-memory; when the disk heals and the
// open window elapses, a probe closes the breaker and appends resume.
func TestDurableDiskFaultDegrades(t *testing.T) {
	dir := t.TempDir()
	inj := chaos.New(7)

	var mu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	opt := wal.Options{
		Fsync:      wal.FsyncAlways,
		WrapWriter: inj.WriterWrapper("disk.write"),
		FaultHook:  inj.HookFor("disk.fault"),
		Now:        clock,
	}
	s, _ := openDurable(t, dir, opt)
	batches := testBatches(2, 100)
	pushAll(t, s, batches[:20])
	if st := s.WALStats(); st.Appends == 0 || st.Degraded != 0 {
		t.Fatalf("healthy phase: %+v", st)
	}

	// Disk full: every write fails with ENOSPC. Ingest must not error.
	inj.Set("disk.write", chaos.Fault{ErrProb: 1, Err: syscall.ENOSPC})
	pushAll(t, s, batches[20:60])
	st := s.WALStats()
	if st.Degraded != 1 || st.Errors == 0 || st.Skipped == 0 {
		t.Fatalf("degraded phase: %+v", st)
	}

	// Disk heals; once the open window elapses a half-open probe append
	// succeeds and closes the breaker.
	inj.ClearAll()
	advance(11 * time.Second)
	pushAll(t, s, batches[60:])
	st2 := s.WALStats()
	if st2.Degraded != 0 || st2.Appends <= st.Appends {
		t.Fatalf("healed phase: before %+v after %+v", st, st2)
	}

	// Every entry survived in memory regardless of the disk outage.
	ref := NewStore(durableLimits())
	pushAll(t, ref, batches)
	if got, want := selectAll(t, s), selectAll(t, ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("in-memory results diverged during degradation")
	}
}

// TestDurableRetentionRemovesSpills: retention that drops a sealed chunk
// leaves its spill file for the next checkpoint's GC (an in-flight query
// may still be faulting payloads from it), and that checkpoint removes it.
func TestDurableRetentionRemovesSpills(t *testing.T) {
	dir := t.TempDir()
	s, _ := openDurable(t, dir, wal.Options{})
	pushAll(t, s, testBatches(3, 150))
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	chunksDir := filepath.Join(dir, chunksDirName)
	before, _ := filepath.Glob(filepath.Join(chunksDir, "*.chk"))
	if len(before) == 0 {
		t.Fatal("checkpoint spilled no chunks")
	}
	if n := s.DeleteBefore(1 << 62); n == 0 {
		t.Fatal("retention dropped nothing")
	}
	// Removal is deferred: the files must survive retention itself so an
	// iterator that captured a chunk before DeleteBefore can still read.
	mid, _ := filepath.Glob(filepath.Join(chunksDir, "*.chk"))
	if len(mid) != len(before) {
		t.Fatalf("retention unlinked spill files inline: %d -> %d", len(before), len(mid))
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after, _ := filepath.Glob(filepath.Join(chunksDir, "*.chk"))
	if len(after) != 0 {
		t.Fatalf("%d spill files survived retention + checkpoint GC", len(after))
	}
}

// TestGCSpillsSkipsNewerThanMark: gcSpills must never delete a spill file
// whose sequence is above the checkpoint's pre-snapshot high-water mark —
// those were written by pushes racing the snapshot and are still live even
// though no checkpoint references them yet.
func TestGCSpillsSkipsNewerThanMark(t *testing.T) {
	dir := t.TempDir()
	write := func(name string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("c00000001.chk") // unreferenced, below mark: orphan, GC'd
	write("c00000002.chk") // referenced: kept
	write("c00000003.chk") // unreferenced, above mark: racing spill, kept
	write("foreign.txt")   // not a spill file: untouched
	gcSpills(dir, map[string]bool{"c00000002.chk": true}, 2)
	var left []string
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		left = append(left, e.Name())
	}
	want := []string{"c00000002.chk", "c00000003.chk", "foreign.txt"}
	if !reflect.DeepEqual(left, want) {
		t.Fatalf("after GC: %v, want %v", left, want)
	}
}

// TestDurableConcurrentPush exercises the WAL append path under -race:
// concurrent pushers to overlapping streams while a checkpointer runs.
func TestDurableConcurrentPush(t *testing.T) {
	dir := t.TempDir()
	s, _ := openDurable(t, dir, wal.Options{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for e := 0; e < 200; e++ {
				_ = s.Push([]PushStream{{
					Labels:  labels.FromStrings("job", "conc", "worker", fmt.Sprintf("w%d", g)),
					Entries: []Entry{{Timestamp: int64(e) * 1e6, Line: fmt.Sprintf("g=%d e=%d", g, e)}},
				}})
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5; i++ {
			if err := s.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
			}
		}
	}()
	wg.Wait()
	<-done
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}

	s2, _ := openDurable(t, dir, wal.Options{})
	if got := s2.Stats().Entries; got != 4*200 {
		t.Fatalf("recovered %d entries, want %d", got, 4*200)
	}
}
