package loki_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"shastamon/internal/chunkenc"
	"shastamon/internal/labels"
	"shastamon/internal/loki"
	"shastamon/internal/stats"
	"shastamon/internal/tenant"
	"shastamon/internal/tsdb"
	"shastamon/internal/wal"
)

// TestDifferentialIndex drives the log store and the TSDB through their
// public API with one seeded random script per store — pushes/appends
// over 40 label sets × 3 tenants with in-order, out-of-order and
// duplicate timestamps, a store-wide stream cap and per-tenant quotas
// that trip mid-run, retention cuts that empty whole series, checkpoints,
// crashes with WAL replay and clean restarts — and after every step
// compares every read of the label index against a naive map model of
// (tenant, labels) → content: Select (with its streams-selected and
// shards-touched statistics), LatestBefore, Series, LabelValues, Stats,
// TenantStats, and each write's accept/reject outcome.
//
// The model shares no code with the stores beyond the label and matcher
// types. It does know how durability behaves, because the index's
// answers depend on it: a checkpoint snapshots every series, a crash
// restores that snapshot and re-applies the accepted writes logged since,
// grouped by WAL stripe (tenant fingerprint mod stripes) in stripe order,
// and retention is not logged, so a crash can resurrect what a cut
// removed.
func TestDifferentialIndex(t *testing.T) {
	for _, kind := range []string{"loki", "tsdb"} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", kind, seed), func(t *testing.T) {
				runDifferential(t, kind, seed, 200)
			})
		}
	}
}

const (
	diffSetCount = 40
	diffStripes  = 4
	diffStoreCap = 48 // loki only: below the three tenants' 40 sets, so it trips
	diffMaxLine  = 48
	diffChunkLen = 4 // entries per loki chunk, so retention drops whole chunks
)

var (
	diffTenants = []string{tenant.DefaultID, "hpc-a", "hpc-b"}
	// hpc-a has no quota of its own (only the loki store cap bounds it);
	// the default tenant and hpc-b trip theirs.
	diffOverrides = &tenant.Overrides{
		Defaults:  tenant.Limits{MaxStreams: 20},
		PerTenant: map[string]tenant.Limits{"hpc-a": {}, "hpc-b": {MaxStreams: 12}},
	}
	diffMatchers = [][]*labels.Matcher{
		nil,
		{labels.MustMatcher(labels.MatchEqual, "job", "syslog")},
		{labels.MustMatcher(labels.MatchNotEqual, "host", "nid003")},
		{labels.MustMatcher(labels.MatchRegexp, "host", "nid00[0-7]")},
		{labels.MustMatcher(labels.MatchNotRegexp, "job", "fab.*"), labels.MustMatcher(labels.MatchRegexp, "host", ".*[13579]")},
		{labels.MustMatcher(labels.MatchEqual, "job", "nope")},
	}
)

// diffSets[kind][i] is label set i of a store — two jobs × 20 hosts —
// and diffKeys its rendered form, the stores' result order.
var diffSets, diffKeys = func() (map[string][]labels.Labels, map[string][]string) {
	sets, keys := map[string][]labels.Labels{}, map[string][]string{}
	for i := 0; i < diffSetCount; i++ {
		ls := labels.FromStrings("job", []string{"syslog", "fabric"}[i%2], "host", fmt.Sprintf("nid%03d", i/2))
		sets["loki"] = append(sets["loki"], ls)
		sets["tsdb"] = append(sets["tsdb"], ls.With(tsdb.MetricNameLabel, []string{"up", "temp"}[i%2]))
	}
	for kind, ls := range sets {
		for _, l := range ls {
			keys[kind] = append(keys[kind], l.String())
		}
	}
	return sets, keys
}()

func diffLabels(kind string, i int) labels.Labels { return diffSets[kind][i] }

type dkey struct {
	tid string
	set int
}

type ditem struct {
	ts   int64
	line string  // loki
	v    float64 // tsdb
}

// dseries is one modelled stream or series. Loki content is kept in its
// chunk grouping (retention drops whole chunks); the TSDB's in chunks[0].
type dseries struct {
	chunks [][]ditem
	last   int64 // loki: newest accepted timestamp; tsdb: newest sample
}

func (s *dseries) clone() *dseries {
	c := &dseries{last: s.last}
	for _, ch := range s.chunks {
		c.chunks = append(c.chunks, append([]ditem(nil), ch...))
	}
	return c
}

func (s *dseries) items() []ditem {
	var out []ditem
	for _, ch := range s.chunks {
		out = append(out, ch...)
	}
	return out
}

type dcount struct{ entries, bytes int64 }

// dmodel is the naive oracle: maps and linear scans, no striping.
type dmodel struct {
	kind   string
	series map[dkey]*dseries

	// Counters of the current life of the store (restarts re-derive them).
	seen             map[string]bool // tenants with materialized state
	perTenant        map[string]*dcount
	entries, bytes   int64
	dropped, tooLong int64 // out-of-order / too-long discards

	ckpt     map[dkey]*dseries
	log      []dlogRec // accepted writes since the checkpoint, in order
	stripeOf func(dkey) int
}

type dlogRec struct {
	k     dkey
	items []ditem
}

func newModel(kind string) *dmodel {
	m := &dmodel{kind: kind, series: map[dkey]*dseries{}}
	m.stripeOf = func(k dkey) int {
		return int(uint64(tenant.Fingerprint(k.tid, diffLabels(kind, k.set))) % diffStripes)
	}
	m.newLife()
	return m
}

func (m *dmodel) newLife() {
	m.seen = map[string]bool{tenant.DefaultID: true}
	m.perTenant = map[string]*dcount{}
	m.entries, m.bytes, m.dropped, m.tooLong = 0, 0, 0, 0
}

func (m *dmodel) live(tid string) int {
	n := 0
	for k := range m.series {
		if tid == "" || k.tid == tid {
			n++
		}
	}
	return n
}

func (m *dmodel) credit(tid string, entries, bytes int64) {
	c := m.perTenant[tid]
	if c == nil {
		c = &dcount{}
		m.perTenant[tid] = c
	}
	c.entries += entries
	c.bytes += bytes
	m.entries += entries
	m.bytes += bytes
}

// create applies the store cap and the tenant quota to a new series.
func (m *dmodel) create(k dkey) (*dseries, error) {
	if s := m.series[k]; s != nil {
		return s, nil
	}
	if m.kind == "loki" && m.live("")+1 > diffStoreCap {
		return nil, loki.ErrMaxStreams
	}
	if q := diffOverrides.For(k.tid).MaxStreams; q > 0 && m.live(k.tid)+1 > q {
		if m.kind == "loki" {
			return nil, loki.ErrMaxStreams
		}
		return nil, tsdb.ErrMaxSeries
	}
	s := &dseries{last: -1 << 62}
	m.series[k] = s
	return s, nil
}

// lokiPush is one stream of a push: create, then each entry against the
// line limit and the stream's newest timestamp. It returns the first
// error and the accepted entries (what the WAL logs).
func (m *dmodel) lokiPush(k dkey, items []ditem) (error, []ditem) {
	s, err := m.create(k)
	if err != nil {
		return err, nil
	}
	var firstErr error
	var ok []ditem
	for _, it := range items {
		switch {
		case len(it.line) > diffMaxLine:
			m.tooLong++
			if firstErr == nil {
				firstErr = loki.ErrLineTooLong
			}
		case it.ts < s.last:
			m.dropped++
			if firstErr == nil {
				firstErr = chunkenc.ErrOutOfOrder
			}
		default:
			if n := len(s.chunks); n == 0 || len(s.chunks[n-1]) >= diffChunkLen {
				s.chunks = append(s.chunks, nil)
			}
			s.chunks[len(s.chunks)-1] = append(s.chunks[len(s.chunks)-1], it)
			s.last = it.ts
			ok = append(ok, it)
			m.credit(k.tid, 1, int64(len(it.line)))
		}
	}
	return firstErr, ok
}

func (m *dmodel) tsdbAppend(k dkey, it ditem) error {
	s, err := m.create(k)
	if err != nil {
		return err
	}
	if len(s.chunks) == 0 {
		s.chunks = [][]ditem{nil}
	}
	data := s.chunks[0]
	switch n := len(data); {
	case n > 0 && it.ts < data[n-1].ts:
		m.dropped++
		return tsdb.ErrOutOfOrder
	case n > 0 && it.ts == data[n-1].ts:
		data[n-1].v = it.v
	default:
		s.chunks[0] = append(data, it)
	}
	m.credit(k.tid, 1, 0)
	return nil
}

// deleteBefore is retention: loki drops whole chunks whose newest entry
// is older than cut, the TSDB drops samples; empty series go.
func (m *dmodel) deleteBefore(cut int64) int {
	dropped := 0
	for k, s := range m.series {
		if m.kind == "loki" {
			var kept [][]ditem
			for _, ch := range s.chunks {
				if ch[len(ch)-1].ts < cut {
					dropped++
					continue
				}
				kept = append(kept, ch)
			}
			s.chunks = kept
		} else if len(s.chunks) > 0 {
			data := s.chunks[0]
			lo := 0
			for lo < len(data) && data[lo].ts < cut {
				lo++
			}
			dropped += lo
			s.chunks[0] = data[lo:]
			if len(s.chunks[0]) == 0 {
				s.chunks = nil
			}
		}
		if len(s.chunks) == 0 {
			delete(m.series, k)
		}
	}
	return dropped
}

// checkpoint snapshots every series and starts an empty log. (Row order
// is not modelled: restore re-creates series that fit the caps before,
// so it cannot trip them.)
func (m *dmodel) checkpoint() {
	m.ckpt = map[dkey]*dseries{}
	for k, s := range m.series {
		m.ckpt[k] = s.clone()
	}
	m.log = nil
}

// reopen is recovery: restore the checkpoint, then replay the log stripe
// by stripe through the write rules. Replayed records stay in the WAL
// until the next checkpoint, so the log is kept as it is.
func (m *dmodel) reopen() {
	m.newLife()
	m.series = map[dkey]*dseries{}
	for k, s := range m.ckpt {
		s = s.clone()
		m.seen[k.tid] = true
		m.series[k] = s
		for _, it := range s.items() {
			m.credit(k.tid, 1, int64(len(it.line)))
		}
	}
	for stripe := 0; stripe < diffStripes; stripe++ {
		for _, r := range m.log {
			if m.stripeOf(r.k) != stripe {
				continue
			}
			m.seen[r.k.tid] = true
			if m.kind == "loki" {
				m.lokiPush(r.k, r.items)
			} else {
				m.tsdbAppend(r.k, r.items[0])
			}
		}
	}
}

// diffStore is one store behind the public API.
type diffStore interface {
	reopen(t *testing.T, dir string)
	checkpoint(t *testing.T)
	shutdown(t *testing.T)
	deleteBefore(cut int64) int
	check(t *testing.T, m *dmodel, now int64)
}

func runDifferential(t *testing.T, kind string, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	m := newModel(kind)
	dir := t.TempDir()
	var st diffStore
	if kind == "loki" {
		st = &diffLoki{}
	} else {
		st = &diffTSDB{}
	}
	st.reopen(t, dir)
	now := int64(100)
	seq := 0
	for step := 0; step < steps; step++ {
		now += 1 + rng.Int63n(3)
		what := ""
		switch r := rng.Intn(100); {
		case r < 72:
			what = "write"
			tid := diffTenants[rng.Intn(len(diffTenants))]
			nStreams := 1 + rng.Intn(3)
			var keys []dkey
			var batches [][]ditem
			for i := 0; i < nStreams; i++ {
				k := dkey{tid, rng.Intn(diffSetCount)}
				var items []ditem
				for j := rng.Intn(4); j >= 0; j-- {
					seq++
					it := ditem{ts: now + rng.Int63n(3), line: fmt.Sprintf("l%05d", seq), v: float64(seq)}
					switch r := rng.Intn(100); {
					case r < 12:
						it.ts = now - 1 - rng.Int63n(40) // likely out of order
					case r < 24:
						if s := m.series[k]; s != nil && s.last > 0 {
							it.ts = s.last // duplicate timestamp
						}
					}
					if kind == "loki" && rng.Intn(10) == 0 {
						it.line = strings.Repeat("x", diffMaxLine+1+rng.Intn(8))
					}
					items = append(items, it)
				}
				keys = append(keys, k)
				batches = append(batches, items)
			}
			if kind == "loki" {
				st.(*diffLoki).write(t, m, tid, keys, batches)
			} else {
				st.(*diffTSDB).write(t, m, tid, keys, batches)
			}
		case r < 78:
			what = "delete"
			cut := now - 20 - rng.Int63n(60)
			want := m.deleteBefore(cut)
			if got := st.deleteBefore(cut); got != want {
				t.Fatalf("step %d: DeleteBefore(%d) = %d, model %d", step, cut, got, want)
			}
		case r < 90:
			what = "checkpoint"
			st.checkpoint(t)
			m.checkpoint()
		case r < 96:
			what = "crash"
			st.reopen(t, dir)
			m.reopen()
		default:
			what = "restart"
			st.shutdown(t)
			m.checkpoint()
			st.reopen(t, dir)
			m.reopen()
		}
		st.check(t, m, now)
		if t.Failed() {
			t.Fatalf("step %d (%s) diverged from the model", step, what)
		}
	}
}

func sortedKeys(m *dmodel, tid string, sel []*labels.Matcher) []dkey {
	var out []dkey
	for k := range m.series {
		if k.tid == tid && labels.MatchLabels(diffLabels(m.kind, k.set), sel) {
			out = append(out, k)
		}
	}
	keys := diffKeys[m.kind]
	sort.Slice(out, func(i, j int) bool { return keys[out[i].set] < keys[out[j].set] })
	return out
}

func stripesTouched(m *dmodel, keys []dkey) int64 {
	seen := map[int]bool{}
	for _, k := range keys {
		seen[m.stripeOf(k)] = true
	}
	return int64(len(seen))
}

// checkIndex compares the label-index reads both stores share.
func checkIndex(t *testing.T, m *dmodel, series func(string, []*labels.Matcher) []labels.Labels, values func(string, string) []string) {
	t.Helper()
	for _, tid := range append(diffTenants, "nobody") {
		for mi, sel := range diffMatchers {
			var want []labels.Labels
			for _, k := range sortedKeys(m, tid, sel) {
				want = append(want, diffLabels(m.kind, k.set))
			}
			if got := series(tid, sel); !reflect.DeepEqual(got, want) {
				t.Errorf("Series(%s, #%d) = %v, model %v", tid, mi, got, want)
			}
		}
		for _, name := range []string{"job", "host", tsdb.MetricNameLabel, "absent"} {
			set := map[string]bool{}
			for _, k := range sortedKeys(m, tid, nil) {
				if v := diffLabels(m.kind, k.set).Get(name); v != "" {
					set[v] = true
				}
			}
			want := []string{}
			for v := range set {
				want = append(want, v)
			}
			sort.Strings(want)
			if got := values(tid, name); !reflect.DeepEqual(got, want) {
				t.Errorf("LabelValues(%s, %s) = %v, model %v", tid, name, got, want)
			}
		}
	}
}

func sameErr(got, want error) bool {
	if want == nil {
		return got == nil
	}
	return errors.Is(got, want)
}

// --- loki binding -------------------------------------------------------

type diffLoki struct{ s *loki.Store }

func (d *diffLoki) reopen(t *testing.T, dir string) {
	d.s = loki.NewStore(loki.Limits{
		MaxLineSize:     diffMaxLine,
		MaxStreams:      diffStoreCap,
		ChunkOptions:    chunkenc.Options{MaxEntries: diffChunkLen},
		Shards:          diffStripes,
		TenantOverrides: diffOverrides,
	})
	if _, err := d.s.EnableDurability(dir, wal.Options{Fsync: wal.FsyncNever}); err != nil {
		t.Fatal(err)
	}
}

func (d *diffLoki) checkpoint(t *testing.T) {
	if err := d.s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

func (d *diffLoki) shutdown(t *testing.T) {
	if err := d.s.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

func (d *diffLoki) deleteBefore(cut int64) int { return d.s.DeleteBefore(cut) }

func (d *diffLoki) write(t *testing.T, m *dmodel, tid string, keys []dkey, batches [][]ditem) {
	var batch []loki.PushStream
	var wantErr error
	m.seen[tid] = true
	for i, k := range keys {
		ps := loki.PushStream{Labels: diffLabels("loki", k.set)}
		for _, it := range batches[i] {
			ps.Entries = append(ps.Entries, loki.Entry{Timestamp: it.ts, Line: it.line})
		}
		batch = append(batch, ps)
		err, ok := m.lokiPush(k, batches[i])
		if err != nil && wantErr == nil {
			wantErr = err
		}
		if len(ok) > 0 {
			m.log = append(m.log, dlogRec{k, ok})
		}
	}
	if got := d.s.PushTenant(tid, batch); !sameErr(got, wantErr) {
		t.Errorf("PushTenant(%s) = %v, model %v", tid, got, wantErr)
	}
}

func (d *diffLoki) check(t *testing.T, m *dmodel, now int64) {
	t.Helper()
	checkIndex(t, m, d.s.SeriesTenant, d.s.LabelValuesTenant)
	for _, tid := range append(diffTenants, "nobody") {
		sels := append([][]*labels.Matcher(nil), diffMatchers...)
		// The frontend's stripe filter is a post-filter on the candidates.
		sels = append(sels, []*labels.Matcher{labels.MustMatcher(labels.MatchEqual, loki.ShardLabel, "1_of_2")})
		for mi, sel := range sels {
			for _, win := range [][2]int64{{0, 1 << 62}, {now - 20, now - 5}} {
				ctx, sc := stats.NewContext(tenant.WithID(context.Background(), tid))
				got, err := d.s.SelectContext(ctx, sel, win[0], win[1])
				if err != nil {
					t.Fatal(err)
				}
				var keys []dkey
				var want []loki.SelectedStream
				real := sel
				if mi == len(diffMatchers) {
					real = nil
				}
				for _, k := range sortedKeys(m, tid, real) {
					if mi == len(diffMatchers) && uint64(tenant.Fingerprint(tid, diffLabels("loki", k.set)))%2 != 1 {
						continue
					}
					keys = append(keys, k)
					var es []loki.Entry
					for _, it := range m.series[k].items() {
						if it.ts >= win[0] && it.ts <= win[1] {
							es = append(es, loki.Entry{Timestamp: it.ts, Line: it.line})
						}
					}
					if len(es) > 0 {
						want = append(want, loki.SelectedStream{Labels: diffLabels("loki", k.set), Entries: es})
					}
				}
				if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
					t.Errorf("Select(%s, #%d, %v) = %v, model %v", tid, mi, win, got, want)
				}
				snap := sc.Snapshot()
				if snap.Store.StreamsSelected != int64(len(keys)) || snap.Summary.Shards != stripesTouched(m, keys) {
					t.Errorf("Select(%s, #%d) stats: %d streams over %d stripes, model %d over %d",
						tid, mi, snap.Store.StreamsSelected, snap.Summary.Shards, len(keys), stripesTouched(m, keys))
				}
			}
		}
	}
	chunks := 0
	for _, s := range m.series {
		chunks += len(s.chunks)
	}
	got := d.s.Stats()
	want := loki.Stats{Streams: len(m.series), Chunks: chunks, Entries: m.entries, RawBytes: m.bytes,
		DiscardedOOO: m.dropped, DiscardedTooLong: m.tooLong, CompressedBytes: got.CompressedBytes}
	if got != want {
		t.Errorf("Stats = %+v, model %+v", got, want)
	}
	var wantTS []loki.TenantStat
	for _, tid := range sortedTenants(m) {
		c := m.perTenant[tid]
		if c == nil {
			c = &dcount{}
		}
		wantTS = append(wantTS, loki.TenantStat{Tenant: tid, Streams: int64(m.live(tid)), Entries: c.entries, RawBytes: c.bytes})
	}
	if gotTS := d.s.TenantStats(); !reflect.DeepEqual(gotTS, wantTS) {
		t.Errorf("TenantStats = %+v, model %+v", gotTS, wantTS)
	}
}

// --- tsdb binding -------------------------------------------------------

type diffTSDB struct{ db *tsdb.DB }

func (d *diffTSDB) reopen(t *testing.T, dir string) {
	d.db = tsdb.NewSharded(diffStripes)
	d.db.SetTenantOverrides(diffOverrides)
	if _, err := d.db.EnableDurability(dir, wal.Options{Fsync: wal.FsyncNever}); err != nil {
		t.Fatal(err)
	}
}

func (d *diffTSDB) checkpoint(t *testing.T) {
	if err := d.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

func (d *diffTSDB) shutdown(t *testing.T) {
	if err := d.db.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

func (d *diffTSDB) deleteBefore(cut int64) int { return d.db.DeleteBefore(cut) }

func (d *diffTSDB) write(t *testing.T, m *dmodel, tid string, keys []dkey, batches [][]ditem) {
	m.seen[tid] = true
	for i, k := range keys {
		for _, it := range batches[i] {
			want := m.tsdbAppend(k, it)
			if want == nil {
				m.log = append(m.log, dlogRec{k, []ditem{it}})
			}
			if got := d.db.AppendTenant(tid, diffLabels("tsdb", k.set), it.ts, it.v); !sameErr(got, want) {
				t.Errorf("AppendTenant(%s, %v, %d) = %v, model %v", tid, diffLabels("tsdb", k.set), it.ts, got, want)
			}
		}
	}
}

func (d *diffTSDB) check(t *testing.T, m *dmodel, now int64) {
	t.Helper()
	checkIndex(t, m, d.db.SeriesTenant, d.db.LabelValuesTenant)
	for _, tid := range append(diffTenants, "nobody") {
		ctx := tenant.WithID(context.Background(), tid)
		for mi, sel := range diffMatchers {
			keys := sortedKeys(m, tid, sel)
			for _, win := range [][2]int64{{0, 1 << 62}, {now - 20, now - 5}} {
				sctx, sc := stats.NewContext(ctx)
				got, err := d.db.SelectContext(sctx, sel, win[0], win[1])
				if err != nil {
					t.Fatal(err)
				}
				want := []tsdb.SeriesData{}
				for _, k := range keys {
					var ss []tsdb.Sample
					for _, it := range m.series[k].items() {
						if it.ts >= win[0] && it.ts <= win[1] {
							ss = append(ss, tsdb.Sample{T: it.ts, V: it.v})
						}
					}
					if len(ss) > 0 {
						want = append(want, tsdb.SeriesData{Labels: diffLabels("tsdb", k.set), Samples: ss})
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("Select(%s, #%d, %v) = %v, model %v", tid, mi, win, got, want)
				}
				snap := sc.Snapshot()
				if snap.Store.StreamsSelected != int64(len(keys)) || snap.Summary.Shards != stripesTouched(m, keys) {
					t.Errorf("Select(%s, #%d) stats: %d series over %d stripes, model %d over %d",
						tid, mi, snap.Store.StreamsSelected, snap.Summary.Shards, len(keys), stripesTouched(m, keys))
				}
			}
			const lookback = 10
			got := d.db.LatestBeforeContext(ctx, sel, now-3, lookback)
			want := []tsdb.SeriesData{}
			for _, k := range keys {
				var latest *ditem
				for _, it := range m.series[k].items() {
					if it.ts <= now-3 {
						it := it
						latest = &it
					}
				}
				if latest != nil && latest.ts >= now-3-lookback {
					want = append(want, tsdb.SeriesData{Labels: diffLabels("tsdb", k.set), Samples: []tsdb.Sample{{T: latest.ts, V: latest.v}}})
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("LatestBefore(%s, #%d) = %v, model %v", tid, mi, got, want)
			}
		}
	}
	if got, want := d.db.Stats(), (tsdb.Stats{Series: len(m.series), Samples: m.entries, Dropped: m.dropped}); got != want {
		t.Errorf("Stats = %+v, model %+v", got, want)
	}
	var wantTS []tsdb.TenantStat
	for _, tid := range sortedTenants(m) {
		c := m.perTenant[tid]
		if c == nil {
			c = &dcount{}
		}
		wantTS = append(wantTS, tsdb.TenantStat{Tenant: tid, Series: int64(m.live(tid)), Samples: c.entries})
	}
	if gotTS := d.db.TenantStats(); !reflect.DeepEqual(gotTS, wantTS) {
		t.Errorf("TenantStats = %+v, model %+v", gotTS, wantTS)
	}
}

func sortedTenants(m *dmodel) []string {
	var out []string
	for tid := range m.seen {
		out = append(out, tid)
	}
	sort.Strings(out)
	return out
}
