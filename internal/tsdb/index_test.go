package tsdb

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"shastamon/internal/labels"
	"shastamon/internal/series"
	"shastamon/internal/tenant"
	"shastamon/internal/wal"
)

// The reserved __tenant__ label is how the WAL persists a series' owner:
// a default-tenant series carrying it would be re-homed into the named
// tenant by the next crash replay. Label sets that could never be written
// back unambiguously are refused when a series is created.

func TestImportRejectsReservedTenantLabel(t *testing.T) {
	db := New()
	rec := httptest.NewRecorder()
	db.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/import/prometheus",
		strings.NewReader("up{__tenant__=\"victim\"} 1 1000\nup{job=\"node\"} 1 1000\n")))
	var got map[string]int
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("import response %q: %v", rec.Body.String(), err)
	}
	if got["accepted"] != 1 || got["rejected"] != 1 {
		t.Fatalf("import = %v, want accepted 1 rejected 1", got)
	}
	if series := db.Series(nil); len(series) != 1 || series[0].Has(tenant.ReservedLabel) {
		t.Fatalf("series after import = %v", series)
	}
}

func TestAppendRejectsInvalidLabels(t *testing.T) {
	for _, tc := range []struct {
		name string
		ls   labels.Labels
		want error // nil: any error
	}{
		{"reserved", labels.FromStrings(MetricNameLabel, "up", tenant.ReservedLabel, "victim"), ErrReservedLabel},
		{"empty-name", labels.Labels{{Name: "", Value: "x"}, {Name: MetricNameLabel, Value: "up"}}, nil},
		{"bad-name", labels.FromStrings(MetricNameLabel, "up", "a=b", "x"), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := New()
			for _, id := range []string{tenant.DefaultID, "hpc-a"} {
				err := db.AppendTenant(id, tc.ls, 1000, 1)
				if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
					t.Fatalf("tenant %s: AppendTenant(%v) = %v, want %v", id, tc.ls, err, tc.want)
				}
			}
			if n := db.Stats().Series; n != 0 {
				t.Fatalf("%d series created", n)
			}
		})
	}
}

// TestCrashReplayKeepsTenants: whatever was offered to the head, every
// series comes back from a crash in the tenant that owned it.
func TestCrashReplayKeepsTenants(t *testing.T) {
	dir := t.TempDir()
	db1, _ := openDurableDB(t, dir, wal.Options{})
	for _, w := range []struct {
		id string
		ls labels.Labels
	}{
		{tenant.DefaultID, labels.FromStrings(MetricNameLabel, "up", tenant.ReservedLabel, "victim")},
		{"hpc-a", labels.FromStrings(MetricNameLabel, "up", tenant.ReservedLabel, "hpc-b")},
		{tenant.DefaultID, labels.FromStrings(MetricNameLabel, "up", "job", "node")},
		{"hpc-a", labels.FromStrings(MetricNameLabel, "up", "job", "node")},
		{"victim", labels.FromStrings(MetricNameLabel, "temp")},
	} {
		_ = db1.AppendTenant(w.id, w.ls, 1000, 1)
	}
	tenants := []string{tenant.DefaultID, "hpc-a", "hpc-b", "victim"}
	before := map[string][]labels.Labels{}
	for _, id := range tenants {
		before[id] = db1.SeriesTenant(id, nil)
	}
	// Crash: no Shutdown.
	db2, info := openDurableDB(t, dir, wal.Options{})
	if info.Replayed == 0 {
		t.Fatalf("recovery replayed nothing: %+v", info)
	}
	for _, id := range tenants {
		if got := db2.SeriesTenant(id, nil); !reflect.DeepEqual(got, before[id]) {
			t.Errorf("tenant %s: series after replay %v, before crash %v", id, got, before[id])
		}
	}
}

// TestRecoverySkipsInvalidLabels: a checkpoint row or WAL record whose
// label set the head would refuse is counted corrupt and skipped — not
// fatal, and never restored into some tenant.
func TestRecoverySkipsInvalidLabels(t *testing.T) {
	dir := t.TempDir()
	good := labels.FromStrings(MetricNameLabel, "up", "job", "node")
	ck := ckptFile{
		CheckpointHeader: wal.CheckpointHeader{Version: 1, Cuts: map[string]int{}},
		Series: []ckptSeries{
			{Row: series.Row{Labels: [][2]string{{MetricNameLabel, "up"}, {tenant.ReservedLabel, "victim"}}}, Samples: encodeSamples([]Sample{{1000, 1}})},
			{Row: series.Row{Labels: [][2]string{{MetricNameLabel, "up"}, {"job", "node"}}}, Samples: encodeSamples([]Sample{{1000, 2}})},
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
	bad := labels.Labels{{Name: "", Value: "x"}, {Name: MetricNameLabel, Value: "up"}}
	for _, rec := range [][]byte{
		appendSample(wal.AppendHeader(nil, wal.RecSample, tenant.DefaultID, bad), 2000, 3),
		appendSample(wal.AppendHeader(nil, wal.RecSample, tenant.DefaultID, good), 2000, 4),
	} {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	db, info := openDurableDB(t, dir, wal.Options{})
	if !info.Checkpoint || info.Corrupt != 2 || info.Replayed != 1 {
		t.Fatalf("recovery = %+v, want checkpoint, 2 corrupt, 1 replayed", info)
	}
	for _, id := range []string{tenant.DefaultID, "victim"} {
		got, err := db.SelectContext(tenant.WithID(context.Background(), id), nil, 0, 1<<40)
		if err != nil {
			t.Fatal(err)
		}
		var want []SeriesData
		if id == tenant.DefaultID {
			want = []SeriesData{{Labels: good, Samples: []Sample{{1000, 2}, {2000, 4}}}}
		}
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("tenant %s after recovery = %+v, want %+v", id, got, want)
		}
	}
}

// TestGetOrCreateHitZeroAlloc pins the append hot path's index lookup, as
// labels' TestFingerprintZeroAlloc pins the hash under it: finding an
// existing series allocates nothing, in the default tenant (plain
// fingerprint) and in a named one (seeded).
func TestGetOrCreateHitZeroAlloc(t *testing.T) {
	db := New()
	ls := labels.FromStrings(MetricNameLabel, "node_load1", "hostname", "nid000001", "job", "node")
	for _, id := range []string{tenant.DefaultID, "hpc-a"} {
		ts := db.idx.Tenant(id)
		want, _, err := db.idx.GetOrCreate(ts, ls)
		if err != nil {
			t.Fatal(err)
		}
		var got *memSeries
		allocs := testing.AllocsPerRun(100, func() { got, _, _ = db.idx.GetOrCreate(ts, ls) })
		if got != want || allocs != 0 {
			t.Fatalf("tenant %s: hit returned %p (want %p) with %.1f allocs, want 0", id, got, want, allocs)
		}
	}
}
