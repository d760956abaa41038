package loki

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"shastamon/internal/labels"
	"shastamon/internal/series"
	"shastamon/internal/tenant"
	"shastamon/internal/wal"
)

// TestRecoverySkipsInvalidLabels: a checkpoint row or WAL record whose
// label set a push would be refused is counted corrupt and skipped — not
// fatal, and never restored into some tenant.
func TestRecoverySkipsInvalidLabels(t *testing.T) {
	dir := t.TempDir()
	good := labels.FromStrings("app", "fm")
	ck := ckptFile{
		CheckpointHeader: wal.CheckpointHeader{Version: 1, Cuts: map[string]int{}},
		Streams: []ckptStream{
			{Row: series.Row{Labels: [][2]string{{"app", "fm"}, {tenant.ReservedLabel, "victim"}}}, LastTS: 1, Head: appendEntries(nil, []Entry{{1, "spoofed"}})},
			{Row: series.Row{Labels: [][2]string{{"app", "fm"}}}, LastTS: 1, Head: appendEntries(nil, []Entry{{1, "restored"}})},
		},
	}
	buf, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, wal.CheckpointFile), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(filepath.Join(dir, wal.LogDirName, wal.ShardDirName(0)), wal.Options{Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	bad := labels.Labels{{Name: "", Value: "x"}, {Name: "app", Value: "fm"}}
	for _, rec := range [][]byte{
		appendEntries(wal.AppendHeader(nil, wal.RecLogStream, tenant.DefaultID, bad), []Entry{{2, "invalid"}}),
		appendEntries(wal.AppendHeader(nil, wal.RecLogStream, tenant.DefaultID, good), []Entry{{2, "replayed"}}),
	} {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	s, info := openDurable(t, dir, wal.Options{})
	if !info.Checkpoint || info.Corrupt != 2 || info.Replayed != 1 {
		t.Fatalf("recovery = %+v, want checkpoint, 2 corrupt, 1 replayed", info)
	}
	want := []SelectedStream{{Labels: good, Entries: []Entry{{1, "restored"}, {2, "replayed"}}}}
	if got := selectAll(t, s); !reflect.DeepEqual(got, want) {
		t.Fatalf("default tenant after recovery = %+v, want %+v", got, want)
	}
	if got := selectAs(t, s, "victim", nil); len(got) != 0 {
		t.Fatalf("tenant victim after recovery = %+v", got)
	}
	if n := s.Stats().Streams; n != 1 {
		t.Fatalf("streams after recovery = %d, want 1", n)
	}
}

// TestGetOrCreateHitZeroAlloc pins the push hot path's index lookup, as
// labels' TestFingerprintZeroAlloc pins the hash under it: finding an
// existing stream allocates nothing, in the default tenant (plain
// fingerprint) and in a named one (seeded).
func TestGetOrCreateHitZeroAlloc(t *testing.T) {
	s := NewStore(DefaultLimits())
	ls := labels.FromStrings("hostname", "nid000001", "data_type", "syslog", "severity", "err")
	for _, id := range []string{tenant.DefaultID, "hpc-a"} {
		ts := s.idx.Tenant(id)
		want, _, err := s.idx.GetOrCreate(ts, ls)
		if err != nil {
			t.Fatal(err)
		}
		var got *stream
		allocs := testing.AllocsPerRun(100, func() { got, _, _ = s.idx.GetOrCreate(ts, ls) })
		if got != want || allocs != 0 {
			t.Fatalf("tenant %s: hit returned %p (want %p) with %.1f allocs, want 0", id, got, want, allocs)
		}
	}
}
