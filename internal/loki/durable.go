// Durability for the log store. The crash-safety protocol — recovery
// order, checkpoint, CLEAN marker, degradation — lives once in
// internal/wal; this file is what only the log store knows: the entry
// codec, its checkpoint rows (snapshot and restore), and sealed-chunk
// spill, the one thing the metrics half has no counterpart for.
//
// Data layout under the store's directory:
//
//	wal/shard-NN/00000001.wal   per-shard segmented log (see internal/wal)
//	chunks/cNNNNNNNN.chk        sealed-chunk spill files (see chunkenc)
//	checkpoint.json             last checkpoint: streams, spill refs, head
//	CLEAN                       marker: last shutdown checkpointed cleanly
package loki

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"

	"shastamon/internal/chunkenc"
	"shastamon/internal/resilience"
	"shastamon/internal/series"
	"shastamon/internal/wal"
)

const chunksDirName = "chunks"

// durability is the per-store durable state hung off Store.dur (nil for a
// memory-only store, and during recovery so replayed pushes are not
// re-logged): the shared directory state machine plus the spill side.
type durability struct {
	*wal.Durable
	chunks   string // spill directory
	opt      wal.Options
	chunkSeq atomic.Int64
}

// RecoveryInfo summarises what EnableDurability reconstructed.
type RecoveryInfo = wal.RecoveryInfo

// ckptStream is one checkpoint row. Head entries are carried as the
// binary WAL entry codec (base64 via encoding/json) — exact bytes, immune
// to the JSON string escaping that would mangle non-UTF-8 log lines.
type ckptStream struct {
	series.Row
	LastTS int64    `json:"last_ts"`
	Chunks []string `json:"chunks,omitempty"` // spill file basenames
	Head   []byte   `json:"head,omitempty"`
}

type ckptFile struct {
	wal.CheckpointHeader
	Streams []ckptStream `json:"streams"`
}

// EnableDurability attaches a WAL + checkpoint + spill directory to the
// store and runs recovery from whatever dir already holds. It must be
// called before any pushes. The breaker name is "wal:logs".
func (s *Store) EnableDurability(dir string, opt wal.Options) (RecoveryInfo, error) {
	if s.dur != nil {
		return RecoveryInfo{}, fmt.Errorf("loki: durability already enabled")
	}
	chunks := filepath.Join(dir, chunksDirName)
	if err := os.MkdirAll(chunks, 0o755); err != nil {
		return RecoveryInfo{}, err
	}
	var ck ckptFile
	d, info, err := wal.OpenDurable(dir, wal.Store{
		Name:       "wal:logs",
		Shards:     s.idx.Stripes(),
		Checkpoint: &ck,
		Restore:    func() (int, error) { return s.restoreStreams(chunks, ck.Streams) },
		Replay:     s.replayRecord,
	}, opt)
	if err != nil {
		return info, err
	}
	dur := &durability{Durable: d, chunks: chunks, opt: opt}
	dur.chunkSeq.Store(maxChunkSeq(chunks))
	s.dur = dur
	return info, nil
}

// WALStats snapshots the durability counters; zero for a memory-only
// store.
func (s *Store) WALStats() wal.DurableStats {
	if s.dur == nil {
		return wal.DurableStats{}
	}
	return s.dur.Stats()
}

// WALBreaker exposes the degradation breaker (nil when memory-only) for
// the united breaker-state gauge and clock injection.
func (s *Store) WALBreaker() *resilience.Breaker {
	if s.dur == nil {
		return nil
	}
	return s.dur.Breaker()
}

// --- record codec -----------------------------------------------------

func appendEntries(buf []byte, entries []Entry) []byte {
	buf = wal.AppendUvarint(buf, uint64(len(entries)))
	var prev int64 // timestamps are delta-coded; the first against 0
	for _, e := range entries {
		buf = wal.AppendVarint(buf, e.Timestamp-prev)
		prev = e.Timestamp
		buf = wal.AppendUvarint(buf, uint64(len(e.Line)))
		buf = append(buf, e.Line...)
	}
	return buf
}

func readEntries(buf []byte) ([]Entry, []byte, error) {
	count, buf, err := wal.ReadUvarint(buf)
	// The count is outside input (a checkpoint row carries no checksum):
	// an entry costs at least two bytes, so the bytes left bound it.
	if err != nil || count > uint64(len(buf))/2 {
		return nil, nil, fmt.Errorf("loki: wal record entry count: %w", wal.ErrCorrupt)
	}
	out := make([]Entry, 0, count)
	var ts int64
	for i := uint64(0); i < count; i++ {
		var delta int64
		if delta, buf, err = wal.ReadVarint(buf); err != nil {
			return nil, nil, err
		}
		ts += delta
		var ln uint64
		if ln, buf, err = wal.ReadUvarint(buf); err != nil || ln > uint64(len(buf)) {
			return nil, nil, fmt.Errorf("loki: wal record line: %w", wal.ErrCorrupt)
		}
		out = append(out, Entry{Timestamp: ts, Line: string(buf[:ln])})
		buf = buf[ln:]
	}
	return out, buf, nil
}

// replayRecord applies one WAL record through the normal push path. A
// record whose label set no push could create is corrupt.
func (s *Store) replayRecord(payload []byte) error {
	tid, ls, rest, err := wal.ReadHeader(payload, wal.RecLogStream)
	if err != nil {
		return err
	}
	entries, _, err := readEntries(rest)
	if err != nil {
		return err
	}
	// Validation rediscovers the same discards as the original push (OOO
	// vs checkpointed lastTS, limits); never fatal for replay.
	err = s.pushStreamTenant(s.idx.Tenant(tid), PushStream{Labels: ls, Entries: entries})
	if errors.Is(err, series.ErrInvalidLabels) {
		return fmt.Errorf("loki: wal record: %w: %v", wal.ErrCorrupt, err)
	}
	return nil
}

// --- spill ------------------------------------------------------------

// parseSpillName returns the sequence number of a cNNNNNNNN.chk spill
// file name, ok=false for foreign files.
func parseSpillName(name string) (int64, bool) {
	if !strings.HasPrefix(name, "c") || !strings.HasSuffix(name, ".chk") {
		return 0, false
	}
	n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "c"), ".chk"), 10, 64)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

func maxChunkSeq(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var max int64
	for _, e := range ents {
		if n, ok := parseSpillName(e.Name()); ok && n > max {
			max = n
		}
	}
	return max
}

// spillChunk writes one sealed chunk to a new spill file and drops its
// payloads from memory. Called under the owning stream's mutex.
func (s *Store) spillChunk(c *chunkenc.Chunk) error {
	dur := s.dur
	if hook := dur.opt.FaultHook; hook != nil {
		if err := hook("spill"); err != nil {
			return err
		}
	}
	path := filepath.Join(dur.chunks, fmt.Sprintf("c%08d.chk", dur.chunkSeq.Add(1)))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var w io.Writer = f
	if dur.opt.WrapWriter != nil {
		w = dur.opt.WrapWriter(f)
	}
	offs, err := c.WriteSpill(w)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return err
	}
	if err := c.MarkSpilled(path, offs); err != nil {
		os.Remove(path)
		return err
	}
	dur.AddSpilled(1)
	return nil
}

// maybeSpillSealed spills a just-sealed chunk at ingest time, best
// effort: a failure degrades the store (breaker) but the chunk simply
// stays resident — the next healthy checkpoint spills it. Called under
// st.mu.
func (s *Store) maybeSpillSealed(c *chunkenc.Chunk) {
	dur := s.dur
	if dur == nil || !dur.Armed() || dur.Degraded() {
		return
	}
	if err := s.spillChunk(c); err != nil {
		dur.ReportError()
	}
}

// --- checkpoint -------------------------------------------------------

// Checkpoint snapshots the store through the shared protocol (see
// wal.Durable.Checkpoint): per shard it freezes the stripe (series.Index
// Freeze: stream lookup blocked, in-flight pushes drained — WAL appends
// happen under the stream locks), rotates the shard's WAL under those
// locks, then snapshots every stream, spilling resident sealed chunks.
// Once the checkpoint is durable, spill files nothing references are
// deleted.
func (s *Store) Checkpoint() error {
	dur := s.dur
	if dur == nil {
		return nil
	}
	var ck ckptFile
	refs := map[string]bool{}
	// Sequence high-water mark before any shard is snapshotted: once a
	// shard's locks are released, concurrent pushes can seal + spill new
	// chunks the refs set never saw. Those carry a higher sequence, so the
	// GC below only touches files at or below this mark.
	seqMark := dur.chunkSeq.Load()
	wrote, err := dur.Checkpoint(&ck, func(i int, rotate func() error) error {
		return s.idx.Freeze(i, rotate, func(st *stream) error {
			cs, err := s.snapshotStream(st, refs)
			ck.Streams = append(ck.Streams, cs)
			return err
		})
	})
	if wrote {
		gcSpills(dur.chunks, refs, seqMark)
	}
	return err
}

// snapshotStream captures one stream under its (held) mutex, spilling any
// resident sealed chunks so the checkpoint can reference them by file.
func (s *Store) snapshotStream(st *stream, refs map[string]bool) (ckptStream, error) {
	d := &st.Data
	cs := ckptStream{Row: st.Row(), LastTS: d.lastTS}
	for _, c := range d.chunks {
		if !c.Spilled() {
			if err := s.spillChunk(c); err != nil {
				return cs, err
			}
		}
		base := filepath.Base(c.SpillPath())
		refs[base] = true
		cs.Chunks = append(cs.Chunks, base)
	}
	if d.head != nil && d.head.Entries() > 0 {
		entries, err := d.head.All(math.MinInt64, math.MaxInt64)
		if err != nil {
			return cs, err
		}
		converted := make([]Entry, len(entries))
		for i, e := range entries {
			converted[i] = Entry{Timestamp: e.Timestamp, Line: e.Line}
		}
		cs.Head = appendEntries(nil, converted)
	}
	return cs, nil
}

// gcSpills removes spill files no checkpoint references: chunks deleted
// by retention plus spills orphaned by a crash between spill and
// checkpoint. Files with a sequence above maxSeq are left alone — they
// were spilled after the snapshot's refs were collected (a concurrent
// push sealing a chunk behind an already-released shard lock) and are
// still live even though no checkpoint references them yet.
func gcSpills(dir string, refs map[string]bool, maxSeq int64) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if refs[e.Name()] {
			continue
		}
		if seq, ok := parseSpillName(e.Name()); ok && seq <= maxSeq {
			_ = os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// --- restore ----------------------------------------------------------

// restoreStreams rebuilds streams from checkpoint rows; corrupt spill
// files and head blobs, and rows whose label set no push could create,
// are skipped (counted), everything else is restored exactly. Counters —
// store-wide and per-tenant, as the push path credits both — are derived
// from the restored state, not persisted: the push path's atomics race
// the snapshot, derived values cannot.
func (s *Store) restoreStreams(chunks string, rows []ckptStream) (corrupt int, err error) {
	for _, cs := range rows {
		st, i, err := s.idx.Restore(cs.Row)
		if errors.Is(err, series.ErrInvalidLabels) {
			corrupt++
			continue
		}
		if err != nil {
			return corrupt, fmt.Errorf("loki: checkpoint restore: %w", err)
		}
		var entries, bytes int64
		st.Lock()
		d := &st.Data
		for _, base := range cs.Chunks {
			c, err := chunkenc.OpenSpill(filepath.Join(chunks, base))
			if err != nil {
				corrupt++
				continue
			}
			d.chunks = append(d.chunks, c)
			entries += int64(c.Entries())
			bytes += int64(c.RawBytes())
		}
		if len(cs.Head) > 0 {
			head, _, err := readEntries(cs.Head)
			if err != nil {
				corrupt++
			}
			for _, e := range head {
				if _, aerr := d.append(e, s.limits.ChunkOptions); aerr == nil {
					entries++
					bytes += int64(len(e.Line))
				}
			}
		}
		d.lastTS = cs.LastTS
		st.Unlock()
		s.counters[i].entries.Add(entries)
		s.counters[i].rawBytes.Add(bytes)
		st.Tenant().Data.entries.Add(entries)
		st.Tenant().Data.bytes.Add(bytes)
	}
	return corrupt, nil
}

// --- shutdown ---------------------------------------------------------

// Shutdown checkpoints, closes the WAL and — when no append raced the
// final snapshot — leaves a CLEAN marker so the next start skips replay.
// The store remains usable afterwards, but in memory-only mode.
func (s *Store) Shutdown() error {
	if s.dur == nil {
		return nil
	}
	return s.dur.Shutdown(s.Checkpoint)
}
