package wal_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"shastamon/internal/wal"
)

// never is the cheapest fsync policy: the fuzz targets below recover
// directories they have just written and nothing has to survive a crash.
var never = wal.Options{Fsync: wal.FsyncNever}

// openBounded recovers dir into a fresh store and fails the test when
// recovery errors — outside bytes are counted corrupt, never fatal — or
// allocates more than a small multiple of the input it was handed.
func openBounded(t *testing.T, b binding, dir string, input int) (store, recovery) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, info, err := b.open(dir, never)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("%s: recovery failed on outside bytes: %v", b.name, err)
	}
	if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(2<<20+64*input); alloc > limit {
		t.Fatalf("%s: recovery allocated %d bytes for %d bytes of input (limit %d)", b.name, alloc, input, limit)
	}
	return s, info
}

// FuzzRecordDecode feeds arbitrary bytes to the record decoders as one WAL
// record payload: the shared header decoder directly, and each store's own
// half (entries, sample) through its replay. Nothing may panic or allocate
// out of proportion, a bad record is counted corrupt and skipped, and a
// header that parses re-encodes to bytes that parse to the same header and
// re-encode to themselves.
func FuzzRecordDecode(f *testing.F) {
	segs, _ := filepath.Glob(filepath.Join("testdata", "parent-image", "*", "wal", "shard-*"))
	for _, dir := range segs {
		if _, err := wal.Replay(dir, false, func(p []byte) error { f.Add(bytes.Clone(p)); return nil }); err != nil {
			f.Fatal(err)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{wal.RecLogStream})
	f.Add([]byte{wal.RecSample, 0xff, 0xff, 0xff, 0x7f})                                    // huge label count
	f.Add(append(wal.AppendHeader(nil, wal.RecLogStream, "", nil), 0xff, 0xff, 0xff, 0x07)) // huge entry count
	f.Add(wal.AppendHeader(nil, wal.RecSample, "hpc-a", nil))                               // header, no sample

	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, typ := range []byte{wal.RecLogStream, wal.RecSample} {
			tid, ls, rest, err := wal.ReadHeader(payload, typ)
			if err != nil {
				if !errors.Is(err, wal.ErrCorrupt) {
					t.Fatalf("header error is not ErrCorrupt: %v", err)
				}
				continue
			}
			re := append(wal.AppendHeader(nil, typ, tid, ls), rest...)
			tid2, ls2, rest2, err := wal.ReadHeader(re, typ)
			if err != nil || tid2 != tid || !ls2.Equal(ls) || !bytes.Equal(rest2, rest) {
				t.Fatalf("re-encoded header parses to (%q %v %x %v), want (%q %v %x)", tid2, ls2, rest2, err, tid, ls, rest)
			}
			if re2 := append(wal.AppendHeader(nil, typ, tid2, ls2), rest2...); !bytes.Equal(re2, re) {
				t.Fatalf("re-encoding is not a fixpoint: %x then %x", re, re2)
			}
		}
		for _, b := range fuzzBindings {
			dir := t.TempDir()
			l, err := wal.Open(filepath.Join(dir, wal.LogDirName, wal.ShardDirName(0)), never)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Append(payload); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			s, info := openBounded(t, b, dir, len(payload))
			if info.Replayed+info.Corrupt != 1 {
				t.Fatalf("%s: one record in, %+v out", b.name, info)
			}
			s.dump(t)
		}
	})
}

// FuzzCheckpointRows feeds arbitrary bytes to the checkpoint readers: as a
// whole checkpoint.json, and as the binary item blob of one row of an
// otherwise valid one (the entries codec on the log side, the samples
// codec on the metrics side). Nothing may panic or allocate out of
// proportion, damage is counted and skipped, and a checkpoint that restores
// cleanly re-encodes to rows that restore to the same store and re-encode
// to the same bytes.
func FuzzCheckpointRows(f *testing.F) {
	for _, b := range bindings {
		golden, err := os.ReadFile(filepath.Join("testdata", "golden", b.name+".checkpoint.json"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(golden, true)
		f.Add(golden[:len(golden)/2], true)
		var doc map[string][]map[string]json.RawMessage
		_ = json.Unmarshal(golden, &doc) // version and cuts do not fit; the rows do
		var blob []byte
		if err := json.Unmarshal(doc[b.rowsKey][0][b.blobField], &blob); err != nil {
			f.Fatal(err)
		}
		f.Add(blob, false)
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0x07}, false) // huge item count
	f.Add([]byte(`{"version":"one"}`), true)

	f.Fuzz(func(t *testing.T, data []byte, whole bool) {
		for _, b := range fuzzBindings {
			dir := t.TempDir()
			doc := data
			if !whole {
				blob, _ := json.Marshal(data)
				doc = []byte(fmt.Sprintf(`{"version":1,"cuts":{},%q:[{"labels":[["__name__","crash_metric"],["stream","s0"]],%q:%s}]}`,
					b.rowsKey, b.blobField, blob))
			}
			ckpt := filepath.Join(dir, wal.CheckpointFile)
			if err := os.WriteFile(ckpt, doc, 0o644); err != nil {
				t.Fatal(err)
			}
			s, info := openBounded(t, b, dir, len(doc))
			if !info.Checkpoint || info.Corrupt != 0 {
				continue
			}
			// A clean restore: write it back out, twice, through a recovery.
			want := s.dump(t)
			rows := func(s store) []byte {
				if err := s.Checkpoint(); err != nil {
					t.Fatalf("%s: checkpoint of a restored store: %v", b.name, err)
				}
				buf, err := os.ReadFile(ckpt)
				if err != nil {
					t.Fatal(err)
				}
				var doc map[string]json.RawMessage
				if err := json.Unmarshal(buf, &doc); err != nil {
					t.Fatalf("%s: wrote an unparsable checkpoint: %v", b.name, err)
				}
				return doc[b.rowsKey]
			}
			first := rows(s)
			s2, info := openBounded(t, b, dir, len(first))
			if !info.Checkpoint || info.Corrupt != 0 {
				t.Fatalf("%s: own checkpoint did not restore cleanly: %+v", b.name, info)
			}
			if got := s2.dump(t); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: restore → checkpoint → restore changed the store:\n%v\nwas\n%v", b.name, got, want)
			}
			if second := rows(s2); !bytes.Equal(second, first) {
				t.Fatalf("%s: rows are not a fixpoint:\n%s\nthen\n%s", b.name, first, second)
			}
		}
	})
}
