package wal_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"shastamon/internal/wal"
)

// -update rewrites testdata/ from the stores of the commit the test runs
// at. The files pin the disk format: they were written at the last commit
// where each store carried its own copy of the protocol and must never be
// regenerated to make a failing comparison pass.
var update = flag.Bool("update", false, "rewrite internal/wal/testdata from this commit's stores")

// formatScript is the tiny fixed directory the format pins use: two
// tenants, nine items per stream (two sealed + spilled chunks and a head
// whose one entry is not valid UTF-8), a checkpoint, then a three-item WAL
// tail. The store is abandoned, not shut down.
func formatScript(t *testing.T, b binding, dir string) {
	t.Helper()
	s, _, err := b.open(dir, always)
	if err != nil {
		t.Fatal(err)
	}
	pushAll(t, s, 0, 9)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	pushAll(t, s, 9, 3)
}

// TestCheckpointGoldenBytes: the checkpoint a store writes today is
// byte-equal to the one its pre-refactor copy of the protocol wrote.
func TestCheckpointGoldenBytes(t *testing.T) {
	for _, b := range bindings {
		dir := t.TempDir()
		formatScript(t, b, dir)
		got, err := os.ReadFile(filepath.Join(dir, "checkpoint.json"))
		if err != nil {
			t.Fatal(err)
		}
		golden := filepath.Join("testdata", "golden", b.name+".checkpoint.json")
		if *update {
			if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s checkpoint.json differs from the pinned format:\n got %s\nwant %s", b.name, got, want)
		}
	}
}

// TestCheckpointRecoversParentImage: a data directory written by the
// pre-refactor stores (checkpoint + spill files + WAL tail) recovers to
// exactly what was pushed into it.
func TestCheckpointRecoversParentImage(t *testing.T) {
	for _, b := range bindings {
		image := filepath.Join("testdata", "parent-image", b.name)
		if *update {
			if err := os.RemoveAll(image); err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			formatScript(t, b, dir)
			copyTree(t, dir, image)
			continue
		}
		dir := t.TempDir()
		copyTree(t, image, dir)
		s, info, err := b.open(dir, wal.StoreOptions{})
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		if !info.Checkpoint || info.Clean || info.Corrupt != 0 || info.Replayed == 0 {
			t.Errorf("%s: recovery of the parent-written image: %+v", b.name, info)
		}
		if got, want := s.dump(t), wantItems(b, 12); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: recovered\n%v\nwant\n%v", b.name, got, want)
		}
	}
}

// TestCheckpointUnreadableFailsOpen: a checkpoint that exists but cannot
// be read is an I/O failure, not corruption — coming up without the data
// it covers would silently lose it, so EnableDurability fails instead.
func TestCheckpointUnreadableFailsOpen(t *testing.T) {
	for _, b := range bindings {
		dir := t.TempDir()
		formatScript(t, b, dir)
		ckpt := filepath.Join(dir, "checkpoint.json")
		if err := os.Remove(ckpt); err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(ckpt, 0o755); err != nil {
			t.Fatal(err)
		}
		if _, info, err := b.open(dir, wal.StoreOptions{}); err == nil {
			t.Errorf("%s: opened over an unreadable checkpoint: %+v", b.name, info)
		}
	}
}

// TestCheckpointTruncatedFallsBackToWAL: a checkpoint that reads but does
// not parse is counted corrupt and recovery replays the WAL alone.
func TestCheckpointTruncatedFallsBackToWAL(t *testing.T) {
	for _, b := range bindings {
		dir := t.TempDir()
		formatScript(t, b, dir)
		ckpt := filepath.Join(dir, "checkpoint.json")
		buf, err := os.ReadFile(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ckpt, buf[:len(buf)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		s, info, err := b.open(dir, wal.StoreOptions{})
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		if info.Checkpoint || info.Clean || info.Corrupt != 1 || info.Replayed == 0 {
			t.Errorf("%s: recovery over a truncated checkpoint: %+v", b.name, info)
		}
		// Only the WAL tail survives: items 9..11 of every stream.
		want := wantItems(b, 12)
		for key := range want {
			want[key] = want[key][9:]
		}
		if got := s.dump(t); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: recovered\n%v\nwant the WAL tail\n%v", b.name, got, want)
		}
	}
}

// rewriteFirstBlob replaces the binary item blob of the first row of a
// checkpoint file.
func rewriteFirstBlob(t *testing.T, b binding, ckpt string, blob []byte) {
	t.Helper()
	buf, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	var rows []map[string]json.RawMessage
	if err := json.Unmarshal(doc[b.rowsKey], &rows); err != nil {
		t.Fatal(err)
	}
	if rows[0][b.blobField], err = json.Marshal(blob); err != nil {
		t.Fatal(err)
	}
	if doc[b.rowsKey], err = json.Marshal(rows); err != nil {
		t.Fatal(err)
	}
	if buf, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointHugeCountRow: checkpoint.json carries no checksum, so an
// item count inside a row is outside input. A four-byte blob claiming four
// million items must be rejected by what the blob can hold — counted
// corrupt, the row skipped, the other rows restored — not turned into a
// hundred-megabyte allocation.
func TestCheckpointHugeCountRow(t *testing.T) {
	for _, b := range bindings {
		dir := t.TempDir()
		formatScript(t, b, dir)
		rewriteFirstBlob(t, b, filepath.Join(dir, "checkpoint.json"), binary.AppendUvarint(nil, 1<<22))

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, info, err := b.open(dir, wal.StoreOptions{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
			t.Errorf("%s: recovery allocated %d MiB over a four-byte blob", b.name, alloc>>20)
		}
		if !info.Checkpoint || info.Corrupt != 1 {
			t.Errorf("%s: recovery over a huge-count row: %+v", b.name, info)
		}
		// The damaged row loses its checkpointed items (its WAL tail still
		// replays); every other stream is whole.
		whole, want := 0, wantItems(b, 12)
		for key, items := range s.dump(t) {
			if reflect.DeepEqual(items, want[key]) {
				whole++
			}
		}
		if whole != len(want)-1 {
			t.Errorf("%s: %d of %d streams whole, want all but the damaged row's", b.name, whole, len(want))
		}
	}
}
