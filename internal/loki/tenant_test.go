package loki

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

func pushAs(t *testing.T, s *Store, id string, ls labels.Labels, entries ...Entry) {
	t.Helper()
	if err := s.PushTenant(id, []PushStream{{Labels: ls, Entries: entries}}); err != nil {
		t.Fatal(err)
	}
}

func selectAs(t *testing.T, s *Store, id string, sel []*labels.Matcher) []SelectedStream {
	t.Helper()
	out, err := s.SelectContext(tenant.WithID(context.Background(), id), sel, 0, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTenantIsolation: two tenants pushing the same label sets into the
// same store get disjoint streams, and every read path (select, series,
// label values, stats) stays inside the caller's tenant.
func TestTenantIsolation(t *testing.T) {
	s := NewStore(DefaultLimits())
	ls := labels.FromStrings("app", "fm", "cluster", "perlmutter")
	pushAs(t, s, "hpc-a", ls, Entry{1e9, "a line"})
	pushAs(t, s, "hpc-b", ls, Entry{1e9, "b line"})
	pushAs(t, s, tenant.DefaultID, ls, Entry{1e9, "default line"})

	if got := s.Stats().Streams; got != 3 {
		t.Fatalf("streams = %d, want 3 (one per tenant)", got)
	}
	for id, want := range map[string]string{"hpc-a": "a line", "hpc-b": "b line", tenant.DefaultID: "default line"} {
		got := selectAs(t, s, id, nil)
		if len(got) != 1 || len(got[0].Entries) != 1 || got[0].Entries[0].Line != want {
			t.Fatalf("tenant %s select = %+v, want one stream with %q", id, got, want)
		}
		if series := s.SeriesTenant(id, nil); len(series) != 1 || !series[0].Equal(ls) {
			t.Fatalf("tenant %s series = %v", id, series)
		}
		if vals := s.LabelValuesTenant(id, "app"); len(vals) != 1 || vals[0] != "fm" {
			t.Fatalf("tenant %s label values = %v", id, vals)
		}
	}
	// An unknown tenant sees an empty store.
	if got := selectAs(t, s, "nobody", nil); len(got) != 0 {
		t.Fatalf("unknown tenant sees %d streams", len(got))
	}

	stats := s.TenantStats()
	if len(stats) != 3 {
		t.Fatalf("tenant stats = %+v", stats)
	}
	for _, ts := range stats {
		if ts.Streams != 1 || ts.Entries != 1 {
			t.Fatalf("tenant %s stats = %+v", ts.Tenant, ts)
		}
	}
}

// TestTenantGoldenSingleTenant pins the golden-equality contract: with
// no org header and no overrides, every stream lands in the default
// tenant with the plain (unseeded) fingerprint — the same stripe, same
// iteration order, same bytes as the pre-tenant store.
func TestTenantGoldenSingleTenant(t *testing.T) {
	s := NewStore(DefaultLimits())
	for i := 0; i < 32; i++ {
		ls := labels.FromStrings("job", "syslog", "stream", fmt.Sprintf("s%02d", i))
		push(t, s, ls, Entry{1e9, "x"})
	}
	seen := 0
	for _, sh := range s.shards {
		for _, st := range sh.ordered {
			seen++
			if st.tenant != tenant.DefaultID {
				t.Fatalf("default push landed in tenant %q", st.tenant)
			}
			if st.fp != st.labels.Fingerprint() {
				t.Fatalf("default-tenant fingerprint %v != plain %v for %v", st.fp, st.labels.Fingerprint(), st.labels)
			}
			if got := s.shardFor(st.labels.Fingerprint()); got != sh {
				t.Fatalf("stream %v striped off its plain-fingerprint shard", st.labels)
			}
		}
	}
	if seen != 32 {
		t.Fatalf("streams = %d", seen)
	}
	// Context-free reads are the default tenant's reads.
	plain, err := s.Select(nil, 0, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	if def := selectAs(t, s, tenant.DefaultID, nil); len(plain) != len(def) {
		t.Fatalf("Select (%d streams) != default-tenant SelectContext (%d)", len(plain), len(def))
	}
}

// TestTenantMaxStreamsExact: the per-tenant stream quota is exact under
// concurrency — reserve-then-rollback, like the store-wide limit — and
// one tenant exhausting its quota leaves another tenant's intact.
func TestTenantMaxStreamsExact(t *testing.T) {
	const quota = 16
	lim := DefaultLimits()
	lim.TenantOverrides = &tenant.Overrides{Defaults: tenant.Limits{MaxStreams: quota}}
	s := NewStore(lim)

	var wg sync.WaitGroup
	var rejected int
	var mu sync.Mutex
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < quota; i++ {
				err := s.PushTenant("flood", []PushStream{{
					Labels:  labels.FromStrings("g", fmt.Sprintf("%d", g), "i", fmt.Sprintf("%d", i)),
					Entries: []Entry{{1e9, "x"}},
				}})
				if err != nil {
					if !errors.Is(err, ErrMaxStreams) {
						t.Errorf("unexpected error: %v", err)
					}
					mu.Lock()
					rejected++
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := len(selectAs(t, s, "flood", nil)); got != quota {
		t.Fatalf("flood streams = %d, want exactly %d", got, quota)
	}
	if rejected != 8*quota-quota {
		t.Fatalf("rejected = %d, want %d", rejected, 8*quota-quota)
	}
	// The quiet tenant still gets its full quota.
	for i := 0; i < quota; i++ {
		pushAs(t, s, "quiet", labels.FromStrings("i", fmt.Sprintf("%d", i)), Entry{1e9, "x"})
	}
	if err := s.PushTenant("quiet", []PushStream{{
		Labels: labels.FromStrings("i", "over"), Entries: []Entry{{1e9, "x"}},
	}}); !errors.Is(err, ErrMaxStreams) {
		t.Fatalf("quiet tenant over quota: %v", err)
	}
}

// TestTenantRateLimit: the token bucket admits whole batches against an
// injected clock, rejected bytes are accounted, and other tenants are
// untouched.
func TestTenantRateLimit(t *testing.T) {
	lim := DefaultLimits()
	lim.TenantOverrides = &tenant.Overrides{PerTenant: map[string]tenant.Limits{
		"capped": {IngestRateBytes: 100},
	}}
	s := NewStore(lim)
	now := int64(1e9)
	s.nowNS = func() int64 { return now }

	ls := labels.FromStrings("app", "x")
	line80 := make([]byte, 80)
	if err := s.PushTenant("capped", []PushStream{{Labels: ls, Entries: []Entry{{1e9, string(line80)}}}}); err != nil {
		t.Fatalf("batch within burst: %v", err)
	}
	err := s.PushTenant("capped", []PushStream{{Labels: ls, Entries: []Entry{{2e9, string(line80)}}}})
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("over-rate batch: %v", err)
	}
	// Uncapped tenants never touch the limiter.
	if err := s.PushTenant(tenant.DefaultID, []PushStream{{Labels: ls, Entries: []Entry{{2e9, string(line80)}}}}); err != nil {
		t.Fatalf("default tenant push: %v", err)
	}
	// One second refills the bucket.
	now += 1e9
	if err := s.PushTenant("capped", []PushStream{{Labels: ls, Entries: []Entry{{3e9, string(line80)}}}}); err != nil {
		t.Fatalf("post-refill batch: %v", err)
	}
	for _, ts := range s.TenantStats() {
		if ts.Tenant == "capped" {
			if ts.RateLimitedBytes != 80 {
				t.Fatalf("rate-limited bytes = %d, want 80", ts.RateLimitedBytes)
			}
			if ts.Entries != 2 {
				t.Fatalf("capped entries = %d, want 2", ts.Entries)
			}
		}
	}
}

func TestReservedTenantLabelRejected(t *testing.T) {
	s := NewStore(DefaultLimits())
	err := s.Push([]PushStream{{
		Labels:  labels.FromStrings(tenant.ReservedLabel, "spoof", "app", "x"),
		Entries: []Entry{{1e9, "x"}},
	}})
	if !errors.Is(err, ErrReservedLabel) {
		t.Fatalf("reserved label push: %v", err)
	}
	if got := s.Stats().Streams; got != 0 {
		t.Fatalf("reserved-label stream created: %d", got)
	}
}

// TestDurableTenantRoundTrip: tenants survive the WAL (crash replay) and
// checkpoint restore; old default-tenant records keep working because
// the tenant rides a reserved label that is absent for the default.
func TestDurableTenantRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ls := labels.FromStrings("app", "fm")

	s1 := NewStore(durableLimits())
	if _, err := s1.EnableDurability(dir, wal.StoreOptions{Options: wal.Options{Fsync: wal.FsyncAlways}}); err != nil {
		t.Fatal(err)
	}
	pushAs(t, s1, "hpc-a", ls, Entry{1e9, "a pre-ckpt"})
	pushAs(t, s1, tenant.DefaultID, ls, Entry{1e9, "default pre-ckpt"})
	if err := s1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	pushAs(t, s1, "hpc-a", ls, Entry{2e9, "a post-ckpt"})
	pushAs(t, s1, "hpc-b", ls, Entry{2e9, "b post-ckpt"})
	// Crash: no Shutdown.

	s2 := NewStore(durableLimits())
	info, err := s2.EnableDurability(dir, wal.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Checkpoint || info.Replayed == 0 {
		t.Fatalf("recovery: %+v", info)
	}
	wantLines := map[string][]string{
		"hpc-a":          {"a pre-ckpt", "a post-ckpt"},
		"hpc-b":          {"b post-ckpt"},
		tenant.DefaultID: {"default pre-ckpt"},
	}
	for id, want := range wantLines {
		got := selectAs(t, s2, id, nil)
		if len(got) != 1 || len(got[0].Entries) != len(want) {
			t.Fatalf("tenant %s recovered %+v, want %v", id, got, want)
		}
		for i, e := range got[0].Entries {
			if e.Line != want[i] {
				t.Fatalf("tenant %s line %d = %q, want %q", id, i, e.Line, want[i])
			}
		}
	}
	// Recovered streams keep their tenant-namespaced fingerprints.
	for _, sh := range s2.shards {
		for _, st := range sh.ordered {
			if want := tenant.Fingerprint(st.tenant, st.labels); st.fp != want {
				t.Fatalf("recovered stream tenant %q fp %v, want %v", st.tenant, st.fp, want)
			}
		}
	}
}

// TestDurableTenantRoundTripCounters: the per-tenant counters must not
// depend on how a store recovered. WAL replay credits them through the
// push path; checkpoint restore has to credit them too, or a restart
// leaves shastamon_loki_tenant_entries_total at 0 (clean) or at the WAL
// tail (crash) beside a store total of N.
func TestDurableTenantRoundTripCounters(t *testing.T) {
	always := wal.StoreOptions{Options: wal.Options{Fsync: wal.FsyncAlways}}
	for _, tc := range []struct {
		name string
		end  func(t *testing.T, s *Store) // how the first life ends
	}{
		{"wal-only", func(*testing.T, *Store) {}},
		{"checkpoint+tail", func(t *testing.T, s *Store) {
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			pushAs(t, s, "hpc-a", labels.FromStrings("app", "fm"), Entry{9e9, "a tail"})
			pushAs(t, s, tenant.DefaultID, labels.FromStrings("app", "fm"), Entry{9e9, "default tail"})
		}},
		{"clean", func(t *testing.T, s *Store) {
			if err := s.Shutdown(); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s1 := NewStore(durableLimits())
			if _, err := s1.EnableDurability(dir, always); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 40; i++ { // enough to seal and spill chunks
				for _, id := range []string{"hpc-a", "hpc-b", tenant.DefaultID} {
					pushAs(t, s1, id, labels.FromStrings("app", "fm"),
						Entry{int64(i+1) * 1e6, fmt.Sprintf("%s line %03d %s", id, i, "x123456789abcdef0123456789abcdef")})
				}
			}
			tc.end(t, s1)
			want := s1.TenantStats()

			s2 := NewStore(durableLimits())
			info, err := s2.EnableDurability(dir, wal.StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if info.Clean != (tc.name == "clean") || info.Checkpoint == (tc.name == "wal-only") {
				t.Fatalf("recovery took the wrong path: %+v", info)
			}
			got := s2.TenantStats()
			if len(got) != len(want) {
				t.Fatalf("tenants after recovery = %+v, want %+v", got, want)
			}
			var entries, bytes int64
			for i, ts := range got {
				if ts != want[i] {
					t.Errorf("tenant %s after recovery = %+v, want %+v", ts.Tenant, ts, want[i])
				}
				entries += ts.Entries
				bytes += ts.RawBytes
			}
			if st := s2.Stats(); entries != st.Entries || bytes != st.RawBytes {
				t.Errorf("per-tenant sums %d entries / %d bytes, store totals %d / %d", entries, bytes, st.Entries, st.RawBytes)
			}
		})
	}
}

// TestTenantConcurrentPushRace hammers the same label sets from two
// tenants concurrently; -race plus the cross-checks catch striping or
// accounting contamination.
func TestTenantConcurrentPushRace(t *testing.T) {
	s := NewStore(DefaultLimits())
	const perTenant = 200
	var wg sync.WaitGroup
	for _, id := range []string{"hpc-a", "hpc-b"} {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for i := 0; i < perTenant; i++ {
				// Identical label sets across tenants, multiple streams each.
				ls := labels.FromStrings("app", "x", "s", fmt.Sprintf("%d", i%4))
				if err := s.PushTenant(id, []PushStream{{Labels: ls,
					Entries: []Entry{{int64(i+1) * 1e6, id + " line"}}}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	for _, id := range []string{"hpc-a", "hpc-b"} {
		got := selectAs(t, s, id, nil)
		if len(got) != 4 {
			t.Fatalf("tenant %s streams = %d, want 4", id, len(got))
		}
		total := 0
		for _, st := range got {
			total += len(st.Entries)
			for _, e := range st.Entries {
				if e.Line != id+" line" {
					t.Fatalf("tenant %s sees foreign line %q", id, e.Line)
				}
			}
		}
		if total != perTenant {
			t.Fatalf("tenant %s entries = %d, want %d", id, total, perTenant)
		}
	}
}
