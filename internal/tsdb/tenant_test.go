package tsdb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"shastamon/internal/labels"
	"shastamon/internal/tenant"
	"shastamon/internal/wal"
)

// TestTenantSeriesIsolation: identical label sets appended by different
// tenants stay disjoint series, and reads are tenant-scoped.
func TestTenantSeriesIsolation(t *testing.T) {
	db := NewSharded(2)
	ls := labels.FromStrings("__name__", "node_temp_celsius", "xname", "x1000c0s0b0n0")
	if err := db.AppendTenant("hpc-a", ls, 1000, 1); err != nil {
		t.Fatal(err)
	}
	if err := db.AppendTenant("hpc-b", ls, 1000, 2); err != nil {
		t.Fatal(err)
	}
	if err := db.Append(ls, 1000, 3); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().Series; got != 3 {
		t.Fatalf("series = %d, want 3", got)
	}
	for id, want := range map[string]float64{"hpc-a": 1, "hpc-b": 2, tenant.DefaultID: 3} {
		got, err := db.SelectContext(tenant.WithID(context.Background(), id), nil, 0, 2000)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || len(got[0].Samples) != 1 || got[0].Samples[0].V != want {
			t.Fatalf("tenant %s select = %+v, want one point %v", id, got, want)
		}
		if series := db.SeriesTenant(id, nil); len(series) != 1 {
			t.Fatalf("tenant %s series = %v", id, series)
		}
	}
	got, err := db.SelectContext(tenant.WithID(context.Background(), "nobody"), nil, 0, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("unknown tenant sees %d series", len(got))
	}
}

// TestTenantGoldenSingleTenantTSDB pins single-tenant byte-equality:
// default appends get plain fingerprints and unchanged striping.
func TestTenantGoldenSingleTenantTSDB(t *testing.T) {
	db := NewSharded(4)
	for i := 0; i < 32; i++ {
		ls := labels.FromStrings("__name__", "m", "i", fmt.Sprintf("%d", i))
		if err := db.Append(ls, 1000, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	seen := 0
	for i := 0; i < db.Shards(); i++ {
		_ = db.idx.Freeze(i, func() error { return nil }, func(s *memSeries) error {
			seen++
			if s.Tenant().ID != tenant.DefaultID {
				t.Fatalf("default append landed in tenant %q", s.Tenant().ID)
			}
			if s.FP != s.Labels.Fingerprint() {
				t.Fatalf("default-tenant fp %v != plain %v", s.FP, s.Labels.Fingerprint())
			}
			if db.idx.Stripe(s.Labels.Fingerprint()) != i {
				t.Fatalf("series %v striped off its plain-fingerprint shard", s.Labels)
			}
			return nil
		})
	}
	if seen != 32 {
		t.Fatalf("series = %d", seen)
	}
}

// TestTenantMaxSeriesExact: per-tenant series quota (MaxStreams) is
// exact under concurrent appends and scoped to the offending tenant.
func TestTenantMaxSeriesExact(t *testing.T) {
	const quota = 16
	db := NewSharded(4)
	db.SetTenantOverrides(&tenant.Overrides{Defaults: tenant.Limits{MaxStreams: quota}})

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < quota; i++ {
				err := db.AppendTenant("flood",
					labels.FromStrings("__name__", "m", "g", fmt.Sprintf("%d", g), "i", fmt.Sprintf("%d", i)), 1000, 1)
				if err != nil && !errors.Is(err, ErrMaxSeries) {
					t.Errorf("unexpected error: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := len(db.SeriesTenant("flood", nil)); got != quota {
		t.Fatalf("flood series = %d, want exactly %d", got, quota)
	}
	// Quiet tenant unaffected.
	for i := 0; i < quota; i++ {
		if err := db.AppendTenant("quiet", labels.FromStrings("__name__", "m", "i", fmt.Sprintf("%d", i)), 1000, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.AppendTenant("quiet", labels.FromStrings("__name__", "m", "i", "over"), 1000, 1); !errors.Is(err, ErrMaxSeries) {
		t.Fatalf("quiet tenant over quota: %v", err)
	}
}

// TestDurableTenantRoundTripTSDB: tenant namespaces survive WAL replay
// and checkpoint restore.
func TestDurableTenantRoundTripTSDB(t *testing.T) {
	dir := t.TempDir()
	ls := labels.FromStrings("__name__", "m")

	db1 := NewSharded(2)
	if _, err := db1.EnableDurability(dir, wal.Options{Fsync: wal.FsyncAlways}); err != nil {
		t.Fatal(err)
	}
	if err := db1.AppendTenant("hpc-a", ls, 1000, 1); err != nil {
		t.Fatal(err)
	}
	if err := db1.Append(ls, 1000, 10); err != nil {
		t.Fatal(err)
	}
	if err := db1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db1.AppendTenant("hpc-a", ls, 2000, 2); err != nil {
		t.Fatal(err)
	}
	if err := db1.AppendTenant("hpc-b", ls, 2000, 20); err != nil {
		t.Fatal(err)
	}
	// Crash: no Shutdown.

	db2 := NewSharded(2)
	info, err := db2.EnableDurability(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Checkpoint || info.Replayed == 0 {
		t.Fatalf("recovery: %+v", info)
	}
	wantPoints := map[string][]float64{
		"hpc-a":          {1, 2},
		"hpc-b":          {20},
		tenant.DefaultID: {10},
	}
	for id, want := range wantPoints {
		got, err := db2.SelectContext(tenant.WithID(context.Background(), id), nil, 0, 3000)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || len(got[0].Samples) != len(want) {
			t.Fatalf("tenant %s recovered %+v, want points %v", id, got, want)
		}
		for i, p := range got[0].Samples {
			if p.V != want[i] {
				t.Fatalf("tenant %s point %d = %v, want %v", id, i, p.V, want[i])
			}
		}
	}
	for _, s := range db2.idx.All() {
		if want := tenant.Fingerprint(s.Tenant().ID, s.Labels); s.FP != want {
			t.Fatalf("recovered series tenant %q fp %v, want %v", s.Tenant().ID, s.FP, want)
		}
	}
}

// TestTenantConcurrentAppendRaceTSDB hammers identical series names from
// two tenants; -race plus value checks catch contamination.
func TestTenantConcurrentAppendRaceTSDB(t *testing.T) {
	db := NewSharded(4)
	const perTenant = 200
	var wg sync.WaitGroup
	for ti, id := range []string{"hpc-a", "hpc-b"} {
		wg.Add(1)
		go func(ti int, id string) {
			defer wg.Done()
			for i := 0; i < perTenant; i++ {
				ls := labels.FromStrings("__name__", "m", "s", fmt.Sprintf("%d", i%4))
				if err := db.AppendTenant(id, ls, int64(i+1), float64(ti)); err != nil {
					t.Error(err)
					return
				}
			}
		}(ti, id)
	}
	wg.Wait()
	for ti, id := range []string{"hpc-a", "hpc-b"} {
		got, err := db.SelectContext(tenant.WithID(context.Background(), id), nil, 0, perTenant+1)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 4 {
			t.Fatalf("tenant %s series = %d, want 4", id, len(got))
		}
		total := 0
		for _, s := range got {
			total += len(s.Samples)
			for _, p := range s.Samples {
				if p.V != float64(ti) {
					t.Fatalf("tenant %s sees foreign value %v", id, p.V)
				}
			}
		}
		if total != perTenant {
			t.Fatalf("tenant %s points = %d, want %d", id, total, perTenant)
		}
	}
}

// TestDurableTenantRoundTripTSDBCounters: per-tenant sample counters must
// not depend on how the head recovered — checkpoint restore credits the
// tenant exactly as WAL replay does.
func TestDurableTenantRoundTripTSDBCounters(t *testing.T) {
	always := wal.Options{Fsync: wal.FsyncAlways}
	ls := labels.FromStrings("__name__", "m")
	for _, tc := range []struct {
		name string
		end  func(t *testing.T, db *DB) // how the first life ends
	}{
		{"wal-only", func(*testing.T, *DB) {}},
		{"checkpoint+tail", func(t *testing.T, db *DB) {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			for _, id := range []string{"hpc-a", tenant.DefaultID} {
				if err := db.AppendTenant(id, ls, 9000, 9); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"clean", func(t *testing.T, db *DB) {
			if err := db.Shutdown(); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			db1 := NewSharded(2)
			if _, err := db1.EnableDurability(dir, always); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				for _, id := range []string{"hpc-a", "hpc-b", tenant.DefaultID} {
					if err := db1.AppendTenant(id, ls, int64(i+1)*100, float64(i)); err != nil {
						t.Fatal(err)
					}
				}
			}
			tc.end(t, db1)
			want := db1.TenantStats()

			db2 := NewSharded(2)
			info, err := db2.EnableDurability(dir, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if info.Clean != (tc.name == "clean") || info.Checkpoint == (tc.name == "wal-only") {
				t.Fatalf("recovery took the wrong path: %+v", info)
			}
			got := db2.TenantStats()
			if len(got) != len(want) {
				t.Fatalf("tenants after recovery = %+v, want %+v", got, want)
			}
			var samples int64
			for i, ts := range got {
				if ts != want[i] {
					t.Errorf("tenant %s after recovery = %+v, want %+v", ts.Tenant, ts, want[i])
				}
				samples += ts.Samples
			}
			if st := db2.Stats(); samples != st.Samples {
				t.Errorf("per-tenant samples sum to %d, head total %d", samples, st.Samples)
			}
		})
	}
}
