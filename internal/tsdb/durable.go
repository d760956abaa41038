// Durability for the TSDB head, the metrics half of the warehouse. The
// crash-safety protocol lives once in internal/wal; this file is what only
// the head knows: the sample codec and its checkpoint rows (series are
// flat sample slices, snapshotted whole — there is no chunk spill).
//
// Data layout under the DB's directory:
//
//	wal/shard-NN/00000001.wal   per-shard segmented log
//	checkpoint.json             series snapshot + WAL cut points
//	CLEAN                       marker: last shutdown checkpointed cleanly
package tsdb

import (
	"encoding/binary"
	"fmt"
	"math"

	"shastamon/internal/labels"
	"shastamon/internal/resilience"
	"shastamon/internal/tenant"
	"shastamon/internal/wal"
)

// RecoveryInfo summarises what EnableDurability reconstructed.
type RecoveryInfo = wal.RecoveryInfo

// ckptSeries is one checkpoint row.
type ckptSeries struct {
	Labels  [][2]string `json:"labels"`
	Tenant  string      `json:"tenant,omitempty"` // empty = default tenant
	Samples []byte      `json:"samples"`          // binary sample codec, base64 via JSON
}

type ckptFile struct {
	wal.CheckpointHeader
	Series []ckptSeries `json:"series"`
}

// EnableDurability attaches a WAL + checkpoint to the DB and recovers
// whatever dir already holds. Must be called before any appends. The
// breaker name is "wal:metrics".
func (db *DB) EnableDurability(dir string, opt wal.StoreOptions) (RecoveryInfo, error) {
	if db.dur != nil {
		return RecoveryInfo{}, fmt.Errorf("tsdb: durability already enabled")
	}
	var ck ckptFile
	d, info, err := wal.OpenDurable(dir, wal.Store{
		Name:       "wal:metrics",
		Shards:     len(db.shards),
		Checkpoint: &ck,
		Restore:    func() (int, error) { return db.restoreSeries(ck.Series) },
		Replay:     db.replayRecord,
	}, opt)
	if err != nil {
		return info, err
	}
	db.dur = d
	return info, nil
}

// WALStats snapshots the durability counters; zero when memory-only.
func (db *DB) WALStats() wal.DurableStats {
	if db.dur == nil {
		return wal.DurableStats{}
	}
	return db.dur.Stats()
}

// WALBreaker exposes the degradation breaker (nil when memory-only).
func (db *DB) WALBreaker() *resilience.Breaker {
	if db.dur == nil {
		return nil
	}
	return db.dur.Breaker()
}

// --- record codec -----------------------------------------------------

// walPrefixFor caches the encoded record header; called under s.mu.
func (s *series) walPrefixFor() []byte {
	if s.walPrefix == nil {
		s.walPrefix = wal.AppendHeader(nil, wal.RecSample, s.tenant, s.labels)
	}
	return s.walPrefix
}

func appendSample(buf []byte, t int64, v float64) []byte {
	buf = wal.AppendVarint(buf, t)
	var bits [8]byte
	binary.LittleEndian.PutUint64(bits[:], math.Float64bits(v))
	return append(buf, bits[:]...)
}

// replayRecord applies one WAL record through the normal append path.
func (db *DB) replayRecord(payload []byte) error {
	tid, ls, rest, err := wal.ReadHeader(payload, wal.RecSample)
	if err != nil {
		return err
	}
	t, rest, err := wal.ReadVarint(rest)
	if err != nil || len(rest) < 8 {
		return fmt.Errorf("tsdb: wal record sample: %w", wal.ErrCorrupt)
	}
	// OOO vs the checkpointed head re-discovers the original drops;
	// duplicate timestamps overwrite idempotently.
	_ = db.AppendTenant(tid, ls, t, math.Float64frombits(binary.LittleEndian.Uint64(rest[:8])))
	return nil
}

func encodeSamples(data []Sample) []byte {
	buf := wal.AppendUvarint(nil, uint64(len(data)))
	var prev int64
	for i, s := range data {
		if i == 0 {
			buf = wal.AppendVarint(buf, s.T)
		} else {
			buf = wal.AppendVarint(buf, s.T-prev)
		}
		prev = s.T
		var bits [8]byte
		binary.LittleEndian.PutUint64(bits[:], math.Float64bits(s.V))
		buf = append(buf, bits[:]...)
	}
	return buf
}

func decodeSamples(buf []byte) ([]Sample, error) {
	count, buf, err := wal.ReadUvarint(buf)
	// The count is outside input (a checkpoint row carries no checksum):
	// a sample costs at least nine bytes, so the bytes left bound it.
	if err != nil || count > uint64(len(buf))/9 {
		return nil, fmt.Errorf("tsdb: checkpoint sample count: %w", wal.ErrCorrupt)
	}
	out := make([]Sample, 0, count)
	var t int64
	for i := uint64(0); i < count; i++ {
		var delta int64
		if delta, buf, err = wal.ReadVarint(buf); err != nil || len(buf) < 8 {
			return nil, fmt.Errorf("tsdb: checkpoint sample: %w", wal.ErrCorrupt)
		}
		if i == 0 {
			t = delta
		} else {
			t += delta
		}
		out = append(out, Sample{T: t, V: math.Float64frombits(binary.LittleEndian.Uint64(buf[:8]))})
		buf = buf[8:]
	}
	return out, nil
}

// --- checkpoint -------------------------------------------------------

// Checkpoint snapshots the head through the shared protocol (see
// wal.Durable.Checkpoint): per shard, block series lookup, drain the
// per-series mutexes (WAL appends happen under them), rotate the shard WAL
// under those locks, snapshot every series, release.
func (db *DB) Checkpoint() error {
	if db.dur == nil {
		return nil
	}
	var ck ckptFile
	_, err := db.dur.Checkpoint(&ck, func(i int, rotate func() error) error {
		sh := db.shards[i]
		sh.mu.Lock()
		for _, s := range sh.ordered {
			s.mu.Lock()
		}
		defer func() {
			for _, s := range sh.ordered {
				s.mu.Unlock()
			}
			sh.mu.Unlock()
		}()
		if err := rotate(); err != nil {
			return err
		}
		for _, s := range sh.ordered {
			cs := ckptSeries{Samples: encodeSamples(s.data)}
			if s.tenant != "" && s.tenant != tenant.DefaultID {
				cs.Tenant = s.tenant
			}
			for _, l := range s.labels {
				cs.Labels = append(cs.Labels, [2]string{l.Name, l.Value})
			}
			ck.Series = append(ck.Series, cs)
		}
		return nil
	})
	return err
}

// restoreSeries rebuilds the head from checkpoint rows; a row whose sample
// blob does not decode is skipped (counted). Counters — head-wide and
// per-tenant, as the append path credits both — are derived from the
// restored state.
func (db *DB) restoreSeries(rows []ckptSeries) (corrupt int, err error) {
	for _, cs := range rows {
		samples, err := decodeSamples(cs.Samples)
		if err != nil {
			corrupt++
			continue
		}
		ls := make(labels.Labels, 0, len(cs.Labels))
		for _, pair := range cs.Labels {
			ls = append(ls, labels.Label{Name: pair[0], Value: pair[1]})
		}
		ts := db.tenantStateFor(cs.Tenant)
		s, err := db.getOrCreate(ts, labels.New(ls...))
		if err != nil {
			return corrupt, fmt.Errorf("tsdb: checkpoint restore: %w", err)
		}
		s.mu.Lock()
		s.data = samples
		s.mu.Unlock()
		db.appends.Add(int64(len(samples)))
		ts.samples.Add(int64(len(samples)))
	}
	return corrupt, nil
}

// --- shutdown ---------------------------------------------------------

// Shutdown checkpoints, closes the WAL and leaves a CLEAN marker when no
// append raced the final snapshot. The DB stays usable in-memory.
func (db *DB) Shutdown() error {
	if db.dur == nil {
		return nil
	}
	return db.dur.Shutdown(db.Checkpoint)
}
