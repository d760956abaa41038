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
	"errors"
	"fmt"
	"math"

	"shastamon/internal/resilience"
	"shastamon/internal/series"
	"shastamon/internal/wal"
)

// RecoveryInfo summarises what EnableDurability reconstructed.
type RecoveryInfo = wal.RecoveryInfo

// ckptSeries is one checkpoint row.
type ckptSeries struct {
	series.Row
	Samples []byte `json:"samples"` // binary sample codec, base64 via JSON
}

type ckptFile struct {
	wal.CheckpointHeader
	Series []ckptSeries `json:"series"`
}

// EnableDurability attaches a WAL + checkpoint to the DB and recovers
// whatever dir already holds. Must be called before any appends. The
// breaker name is "wal:metrics".
func (db *DB) EnableDurability(dir string, opt wal.Options) (RecoveryInfo, error) {
	if db.dur != nil {
		return RecoveryInfo{}, fmt.Errorf("tsdb: durability already enabled")
	}
	var ck ckptFile
	d, info, err := wal.OpenDurable(dir, wal.Store{
		Name:       "wal:metrics",
		Shards:     db.idx.Stripes(),
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

func appendSample(buf []byte, t int64, v float64) []byte {
	return binary.LittleEndian.AppendUint64(wal.AppendVarint(buf, t), math.Float64bits(v))
}

// replayRecord applies one WAL record through the normal append path. A
// record whose label set no append could create is corrupt.
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
	err = db.AppendTenant(tid, ls, t, math.Float64frombits(binary.LittleEndian.Uint64(rest[:8])))
	if errors.Is(err, series.ErrInvalidLabels) {
		return fmt.Errorf("tsdb: wal record: %w: %v", wal.ErrCorrupt, err)
	}
	return nil
}

func encodeSamples(data []Sample) []byte {
	buf := wal.AppendUvarint(nil, uint64(len(data)))
	var prev int64 // timestamps are delta-coded; the first against 0
	for _, s := range data {
		buf = appendSample(buf, s.T-prev, s.V)
		prev = s.T
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
		t += delta
		out = append(out, Sample{T: t, V: math.Float64frombits(binary.LittleEndian.Uint64(buf[:8]))})
		buf = buf[8:]
	}
	return out, nil
}

// --- checkpoint -------------------------------------------------------

// Checkpoint snapshots the head through the shared protocol (see
// wal.Durable.Checkpoint): per shard it freezes the stripe (series.Index
// Freeze: series lookup blocked, the per-series mutexes drained — WAL
// appends happen under them), rotates the shard WAL under those locks,
// snapshots every series, and releases.
func (db *DB) Checkpoint() error {
	if db.dur == nil {
		return nil
	}
	var ck ckptFile
	_, err := db.dur.Checkpoint(&ck, func(i int, rotate func() error) error {
		return db.idx.Freeze(i, rotate, func(s *memSeries) error {
			ck.Series = append(ck.Series, ckptSeries{Row: s.Row(), Samples: encodeSamples(s.Data)})
			return nil
		})
	})
	return err
}

// restoreSeries rebuilds the head from checkpoint rows; a row whose sample
// blob does not decode, or whose label set no append could create, is
// skipped (counted). The per-tenant sample counters the head's totals sum
// are derived from the restored state.
func (db *DB) restoreSeries(rows []ckptSeries) (corrupt int, err error) {
	for _, cs := range rows {
		samples, err := decodeSamples(cs.Samples)
		if err != nil {
			corrupt++
			continue
		}
		s, _, err := db.idx.Restore(cs.Row)
		if errors.Is(err, series.ErrInvalidLabels) {
			corrupt++
			continue
		}
		if err != nil {
			return corrupt, fmt.Errorf("tsdb: checkpoint restore: %w", err)
		}
		s.Lock()
		s.Data = samples
		s.Unlock()
		s.Tenant().Data.samples.Add(int64(len(samples)))
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
