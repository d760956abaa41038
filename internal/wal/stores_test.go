package wal_test

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"shastamon/internal/chunkenc"
	"shastamon/internal/labels"
	"shastamon/internal/loki"
	"shastamon/internal/tenant"
	"shastamon/internal/tsdb"
	"shastamon/internal/wal"
)

// The durable-directory tables in this package (crash images, checkpoint
// policy, format pins, fuzz targets) drive both stores through one
// binding that uses only their public API, so the same table runs against
// loki.Store and tsdb.DB — and ran unchanged against the two private
// copies of the protocol that preceded the one in this package.

// Every table pushes the same synthetic content: stream key
// "<tenant>/<name>", item seq 0,1,2,... per key with strictly increasing
// timestamps, so order, duplicates and strays are all visible in a dump.
var (
	tenants = []string{tenant.DefaultID, "hpc-a"}
	streams = map[string][]string{tenant.DefaultID: {"s0", "s1"}, "hpc-a": {"s0"}}
)

type recovery struct {
	Clean, Checkpoint bool
	Replayed, Corrupt int
}

type store interface {
	// push appends items [from, from+n) to every stream of one tenant.
	push(tid string, from, n int) error
	Checkpoint() error
	Shutdown() error
	WALStats() wal.DurableStats
	// dump renders every stored item, per stream key, in stored order.
	dump(t testing.TB) map[string][]string
}

type binding struct {
	name string
	open func(dir string, opt wal.Options) (store, recovery, error)
	// render is dump's rendering of one pushed item.
	render func(key string, seq int) string
	// rowsKey / blobField locate the binary item codec inside
	// checkpoint.json: doc[rowsKey][i][blobField].
	rowsKey, blobField string
}

// The tables run loki with chunks that seal after four entries, so a few
// pushes reach seal + spill. The fuzz targets run it with default chunks:
// every block cut allocates a compressor (about a megabyte), which at four
// entries a chunk would drown the allocation bound they check.
var (
	tsdbBinding  = binding{name: "tsdb", open: openTSDB, render: tsdbRender, rowsKey: "series", blobField: "samples"}
	bindings     = []binding{lokiBinding(chunkenc.Options{BlockSize: 1024, MaxEntries: 4}), tsdbBinding}
	fuzzBindings = []binding{lokiBinding(chunkenc.Options{}), tsdbBinding}
)

// --- loki ---------------------------------------------------------------

type lokiStore struct{ *loki.Store }

func lokiBinding(chunks chunkenc.Options) binding {
	open := func(dir string, opt wal.Options) (store, recovery, error) {
		l := loki.DefaultLimits()
		l.Shards = 2
		l.ChunkOptions = chunks
		s := loki.NewStore(l)
		info, err := s.EnableDurability(dir, opt)
		return lokiStore{s}, recovery{info.Clean, info.Checkpoint, info.Replayed, info.Corrupt}, err
	}
	return binding{name: "loki", open: open, render: lokiRender, rowsKey: "streams", blobField: "head"}
}

// lokiLine is item seq of a stream; every fifth line is not valid UTF-8,
// which JSON string escaping would mangle and the binary codec must not.
func lokiLine(key string, seq int) string {
	line := fmt.Sprintf("%s #%03d leak=false payload=0123456789abcdef", key, seq)
	if seq%5 == 3 {
		line += " raw=\xff\xfe\x80"
	}
	return line
}

func lokiRender(key string, seq int) string {
	return fmt.Sprintf("%d %q", int64(seq+1)*1e6, lokiLine(key, seq))
}

func (s lokiStore) push(tid string, from, n int) error {
	var batch []loki.PushStream
	for _, name := range streams[tid] {
		ps := loki.PushStream{Labels: labels.FromStrings("job", "crash", "stream", name)}
		for seq := from; seq < from+n; seq++ {
			ps.Entries = append(ps.Entries, loki.Entry{Timestamp: int64(seq+1) * 1e6, Line: lokiLine(tid+"/"+name, seq)})
		}
		batch = append(batch, ps)
	}
	return s.PushTenant(tid, batch)
}

func (s lokiStore) dump(t testing.TB) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	for _, tid := range tenants {
		sel, err := s.SelectContext(tenant.WithID(context.Background(), tid), nil, 0, 1<<62)
		if err != nil {
			t.Fatalf("select tenant %s: %v", tid, err)
		}
		for _, st := range sel {
			key := tid + "/" + st.Labels.Get("stream")
			for _, e := range st.Entries {
				out[key] = append(out[key], fmt.Sprintf("%d %q", e.Timestamp, e.Line))
			}
		}
	}
	return out
}

// --- tsdb ---------------------------------------------------------------

type tsdbStore struct{ *tsdb.DB }

func openTSDB(dir string, opt wal.Options) (store, recovery, error) {
	db := tsdb.NewSharded(2)
	info, err := db.EnableDurability(dir, opt)
	return tsdbStore{db}, recovery{info.Clean, info.Checkpoint, info.Replayed, info.Corrupt}, err
}

func tsdbRender(_ string, seq int) string {
	return fmt.Sprintf("%d %v", int64(seq+1)*1000, float64(seq)+0.5)
}

func (s tsdbStore) push(tid string, from, n int) error {
	for _, name := range streams[tid] {
		ls := labels.FromStrings(tsdb.MetricNameLabel, "crash_metric", "stream", name)
		for seq := from; seq < from+n; seq++ {
			if err := s.AppendTenant(tid, ls, int64(seq+1)*1000, float64(seq)+0.5); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s tsdbStore) dump(t testing.TB) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	for _, tid := range tenants {
		sel, err := s.SelectContext(tenant.WithID(context.Background(), tid), nil, 0, 1<<62)
		if err != nil {
			t.Fatalf("select tenant %s: %v", tid, err)
		}
		for _, sd := range sel {
			key := tid + "/" + sd.Labels.Get("stream")
			for _, p := range sd.Samples {
				out[key] = append(out[key], fmt.Sprintf("%d %v", p.T, p.V))
			}
		}
	}
	return out
}

// --- helpers ------------------------------------------------------------

// pushAll pushes items [from, from+n) to every stream of every tenant.
func pushAll(t testing.TB, s store, from, n int) {
	t.Helper()
	for _, tid := range tenants {
		if err := s.push(tid, from, n); err != nil {
			t.Fatalf("push tenant %s [%d,%d): %v", tid, from, from+n, err)
		}
	}
}

// wantItems is the dump of a store holding items [0, n) of every stream.
func wantItems(b binding, n int) map[string][]string {
	out := map[string][]string{}
	for _, tid := range tenants {
		for _, name := range streams[tid] {
			key := tid + "/" + name
			for seq := 0; seq < n; seq++ {
				out[key] = append(out[key], b.render(key, seq))
			}
		}
	}
	return out
}

// copyTree copies src into dst — the crash image: whatever bytes are on
// disk at that instant, with no shutdown hooks run (the idiom of
// internal/core/durable_test.go).
func copyTree(t testing.TB, src, dst string) {
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

var always = wal.Options{Fsync: wal.FsyncAlways}
