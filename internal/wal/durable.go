package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"shastamon/internal/resilience"
)

// Names inside a durable store directory (see the package comment).
const (
	CheckpointFile = "checkpoint.json"
	CleanMarker    = "CLEAN"
	LogDirName     = "wal"
)

// Durable is the state machine of one durable store directory (the log
// store's or the TSDB head's): recovery, the per-shard logs, checkpoints,
// shutdown, and the degradation machinery — persistent append failures
// trip a circuit breaker and the store falls back to in-memory mode (the
// WAL is skipped, ingest never blocks) until a half-open probe finds the
// disk healthy again.
//
// The healthy fast path is one atomic load: the breaker mutex is only
// touched once an append has actually failed.
type Durable struct {
	dir     string
	opt     StoreOptions
	logs    []*Log
	breaker *resilience.Breaker

	// armed is set once recovery has finished and cleared by Shutdown;
	// the store logs appends only while it is set.
	armed atomic.Bool
	// unhealthy flips on the first append failure; while set, every
	// append consults the breaker (closed/half-open keeps probing, open
	// skips) and the first success flips it back.
	unhealthy atomic.Bool

	appends     atomic.Int64
	bytes       atomic.Int64
	errors      atomic.Int64
	skipped     atomic.Int64
	corrupt     atomic.Int64
	replayed    atomic.Int64
	checkpoints atomic.Int64
	spilled     atomic.Int64
}

func (o StoreOptions) withDefaults() StoreOptions {
	o.Options = o.Options.withDefaults()
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerOpenFor <= 0 {
		o.BreakerOpenFor = 10 * time.Second
	}
	return o
}

// ShardDirName renders the canonical per-shard WAL directory name.
func ShardDirName(i int) string { return fmt.Sprintf("shard-%02d", i) }

// CheckpointHeader is the part of checkpoint.json the protocol owns. A
// store's checkpoint document is a struct that embeds it first and adds
// the store's rows — one per stream or series — as its own JSON field.
type CheckpointHeader struct {
	Version int            `json:"version"`
	Cuts    map[string]int `json:"cuts"` // shard dir -> first WAL segment not covered
}

func (h *CheckpointHeader) header() *CheckpointHeader { return h }

// CheckpointDoc is a pointer to a struct embedding CheckpointHeader.
type CheckpointDoc interface{ header() *CheckpointHeader }

// Store is everything a store contributes to its durable directory: its
// record codec and its checkpoint rows.
type Store struct {
	// Name labels the degradation breaker ("wal:logs", "wal:metrics").
	Name string
	// Shards is the store's lock-stripe count: one log per stripe.
	Shards int
	// Checkpoint is an empty document; recovery decodes the checkpoint
	// file into it and, when that parsed, calls Restore.
	Checkpoint CheckpointDoc
	// Restore rebuilds the store from Checkpoint's rows and returns how
	// many rows (or parts of rows) it skipped as corrupt.
	Restore func() (corrupt int, err error)
	// Replay applies one WAL record. An error wrapping ErrCorrupt counts
	// the record corrupt and skips it; any other error aborts recovery.
	Replay func(payload []byte) error
}

// RecoveryInfo summarises what OpenDurable reconstructed.
type RecoveryInfo struct {
	// Clean is true when the previous shutdown left a CLEAN marker and
	// recovery was a checkpoint load with no WAL replay.
	Clean bool
	// Checkpoint is true when a checkpoint file was restored.
	Checkpoint bool
	// Replayed is the number of WAL records re-applied.
	Replayed int
	// Corrupt counts WAL records, checkpoint rows and spill files dropped
	// as corrupt (an unparsable checkpoint counts once).
	Corrupt int
}

// OpenDurable recovers the store from whatever dir holds — checkpoint
// restore, then WAL replay — and opens one log per shard under dir/wal for
// the appends that follow. The store must not log while it runs: Restore
// and Replay go through the store's normal ingest paths, which must see no
// armed Durable yet (the caller installs the returned one).
func OpenDurable(dir string, st Store, opt StoreOptions) (*Durable, RecoveryInfo, error) {
	opt = opt.withDefaults()
	d := &Durable{
		dir: dir,
		opt: opt,
		breaker: resilience.NewBreaker(resilience.BreakerConfig{
			Name:             st.Name,
			FailureThreshold: opt.BreakerThreshold,
			OpenFor:          opt.BreakerOpenFor,
			Now:              opt.Now,
		}),
	}
	info, err := d.recover(st)
	if err != nil {
		return nil, info, err
	}
	for i := 0; i < st.Shards; i++ {
		l, err := Open(filepath.Join(dir, LogDirName, ShardDirName(i)), opt.Options)
		if err != nil {
			d.close()
			return nil, info, err
		}
		d.logs = append(d.logs, l)
	}
	d.corrupt.Add(int64(info.Corrupt))
	d.replayed.Add(int64(info.Replayed))
	d.armed.Store(true)
	return d, info, nil
}

// recover rebuilds the store from d.dir: checkpoint restore, then WAL
// replay of every shard directory present (handles shard-count changes
// across restarts), with corrupt records counted and repaired. A CLEAN
// marker (written by Shutdown after a final checkpoint) skips the WAL
// scan entirely.
func (d *Durable) recover(st Store) (RecoveryInfo, error) {
	var info RecoveryInfo
	walRoot := filepath.Join(d.dir, LogDirName)
	marker := filepath.Join(d.dir, CleanMarker)
	_, err := os.Stat(marker)
	clean := err == nil

	hdr := st.Checkpoint.header()
	ok := true
	buf, err := os.ReadFile(filepath.Join(d.dir, CheckpointFile))
	if os.IsNotExist(err) {
		ok = false
	} else if err != nil {
		// An unreadable checkpoint is an I/O failure: coming up without
		// the data it covers would lose it silently.
		return info, err
	} else if json.Unmarshal(buf, st.Checkpoint) != nil {
		// An unparsable one (a torn rename never happens, but a chaos
		// writer can produce one) falls back to WAL-only recovery.
		info.Corrupt++
		ok, clean = false, false
	}
	if ok {
		info.Checkpoint = true
		n, err := st.Restore()
		info.Corrupt += n
		if err != nil {
			return info, err
		}
		// Segments below each cut are covered by the snapshot.
		for shardDir, cut := range hdr.Cuts {
			_ = dropSegmentsBefore(filepath.Join(walRoot, shardDir), cut)
		}
	}

	if clean {
		// Shutdown guaranteed the checkpoint covers every append: no
		// replay needed. The fresh log will restart numbering at segment
		// 1, so stale cuts would prune those segments as "covered" on the
		// next dirty recovery. Clear them BEFORE deleting the WAL and
		// marker: a crash after the rewrite re-enters this path (marker
		// still present, cuts already empty), while the old order could
		// crash into stale cuts with no marker — the exact data-loss case
		// the rewrite exists to prevent.
		info.Clean = true
		if ok && len(hdr.Cuts) > 0 {
			if err := d.writeCheckpoint(st.Checkpoint, map[string]int{}); err != nil {
				return info, err
			}
		}
		// Consume the marker so a later crash replays.
		_ = os.RemoveAll(walRoot)
		_ = os.Remove(marker)
		return info, nil
	}
	_ = os.Remove(marker)

	shardDirs, err := os.ReadDir(walRoot) // sorted by name
	if err != nil && !os.IsNotExist(err) {
		return info, err
	}
	for _, e := range shardDirs {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "shard-") {
			continue
		}
		rs, err := Replay(filepath.Join(walRoot, e.Name()), true, func(payload []byte) error {
			if err := st.Replay(payload); errors.Is(err, ErrCorrupt) {
				info.Corrupt++
				return nil // skip the record, keep replaying
			} else if err != nil {
				return err
			}
			info.Replayed++
			return nil
		})
		if err != nil {
			return info, err
		}
		info.Corrupt += rs.Corrupt
	}
	return info, nil
}

// writeCheckpoint atomically replaces the checkpoint file with doc under
// the given cuts: the document goes to a temporary file (through
// WrapWriter), is fsynced, and only then renamed over the previous one.
func (d *Durable) writeCheckpoint(doc CheckpointDoc, cuts map[string]int) error {
	*doc.header() = CheckpointHeader{Version: 1, Cuts: cuts}
	path := filepath.Join(d.dir, CheckpointFile)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	var w io.Writer = f
	if d.opt.WrapWriter != nil {
		w = d.opt.WrapWriter(f)
	}
	err = json.NewEncoder(w).Encode(doc)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// Armed reports whether appends are being logged: true from the end of
// recovery until Shutdown.
func (d *Durable) Armed() bool { return d.armed.Load() }

// Append writes one record to shard i's log, absorbing failures into the
// degradation breaker: a failed append never propagates to the pusher, it
// just widens the potential-loss window until the disk recovers (the next
// successful checkpoint closes the window entirely, since checkpoints
// snapshot the full in-memory state).
func (d *Durable) Append(i int, payload []byte) {
	if d.unhealthy.Load() {
		if d.breaker.Allow() != nil {
			d.skipped.Add(1)
			return
		}
		if err := d.logs[i].Append(payload); err != nil {
			d.errors.Add(1)
			d.breaker.Failure()
			return
		}
		d.breaker.Success()
		d.unhealthy.Store(false)
		d.appends.Add(1)
		d.bytes.Add(int64(len(payload)))
		return
	}
	if err := d.logs[i].Append(payload); err != nil {
		d.errors.Add(1)
		d.breaker.Failure()
		d.unhealthy.Store(true)
		return
	}
	d.appends.Add(1)
	d.bytes.Add(int64(len(payload)))
}

// ReportError feeds a non-append disk failure (spill, checkpoint write)
// into the same degradation machinery.
func (d *Durable) ReportError() {
	d.errors.Add(1)
	d.breaker.Failure()
	d.unhealthy.Store(true)
}

// Degraded reports whether the store is currently skipping WAL work.
func (d *Durable) Degraded() bool {
	return d.unhealthy.Load() && d.breaker.State() != resilience.Closed
}

// Breaker exposes the degradation breaker (for the united
// shastamon_breaker_state family and clock injection).
func (d *Durable) Breaker() *resilience.Breaker { return d.breaker }

// AddSpilled counts sealed chunks the store spilled beside the logs.
func (d *Durable) AddSpilled(n int64) { d.spilled.Add(n) }

// Checkpoint atomically snapshots the store into doc. snapshot is called
// once per shard, in order, with a rotate callback: the store blocks
// lookups in that shard and drains its in-flight appends (they happen
// under the locks it takes), calls rotate under those locks — so the
// snapshot covers exactly the segments before the cut — appends the
// shard's rows to doc, and releases. The checkpoint file is then written
// via tmp+rename; only after that are covered WAL segments and dormant
// shard directories deleted. Any failure leaves the previous checkpoint
// and all WAL segments in place — recovery is never worse than before the
// attempt. wrote is false, with a nil error, when the directory is not
// armed and nothing was done.
func (d *Durable) Checkpoint(doc CheckpointDoc, snapshot func(shard int, rotate func() error) error) (wrote bool, err error) {
	if !d.armed.Load() {
		return false, nil
	}
	if hook := d.opt.FaultHook; hook != nil {
		if err := hook("checkpoint"); err != nil {
			d.ReportError()
			return false, err
		}
	}
	cuts := map[string]int{}
	for i, l := range d.logs {
		err := snapshot(i, func() error {
			cut, err := l.Rotate()
			if err == nil {
				cuts[ShardDirName(i)] = cut
			}
			return err
		})
		if err != nil {
			// Already-rotated shards are harmless: their extra segments
			// stay on disk and replay alongside everything else.
			d.ReportError()
			return false, err
		}
	}
	if err := d.writeCheckpoint(doc, cuts); err != nil {
		d.ReportError()
		return false, err
	}
	d.checkpoints.Add(1)
	if d.unhealthy.Load() {
		d.breaker.Success()
		d.unhealthy.Store(false)
	}

	// Truncation: everything below the cut is covered by the snapshot, and
	// so are shard directories left by a run with a larger shard count.
	keep := map[string]bool{}
	for i, l := range d.logs {
		_ = l.DropBefore(cuts[ShardDirName(i)])
		keep[ShardDirName(i)] = true
	}
	_ = RemoveDormant(filepath.Join(d.dir, LogDirName), keep)
	return true, nil
}

// Shutdown runs the store's final checkpoint, closes the logs and — when
// no append raced that snapshot — leaves a CLEAN marker so the next start
// skips replay. The store remains usable afterwards, in memory-only mode.
func (d *Durable) Shutdown(checkpoint func() error) error {
	if !d.armed.Load() {
		return nil
	}
	// CLEAN asserts the final checkpoint covers every append, so the
	// baseline is taken before the checkpoint starts: an append racing
	// onto a post-rotation segment after its shard unlocks lands between
	// baseline and after, suppressing the marker. (A checkpoint-covered
	// append also suppresses it — a false negative, which merely costs a
	// replay; a false positive would lose the record.) Shutdown is
	// expected to run with ingest quiesced; the counters are the guard.
	base := d.Stats()
	err := checkpoint()
	d.armed.Store(false)
	if cerr := d.close(); err == nil {
		err = cerr
	}
	after := d.Stats()
	if err == nil && after.Appends == base.Appends && after.Errors == base.Errors && after.Skipped == base.Skipped {
		if f, ferr := os.Create(filepath.Join(d.dir, CleanMarker)); ferr == nil {
			f.Close()
		}
	}
	return err
}

// close closes every shard log.
func (d *Durable) close() error {
	var firstErr error
	for _, l := range d.logs {
		if err := l.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// DurableStats is the point-in-time durability counter snapshot rendered
// into the shastamon_wal_* metric families.
type DurableStats struct {
	Appends     int64
	Bytes       int64
	Errors      int64
	Skipped     int64
	Corrupt     int64
	Replayed    int64
	Checkpoints int64
	Spilled     int64
	Fsyncs      int64
	Segments    int64 // rotations across shards
	// Degraded is 1 while the store is skipping WAL work, else 0.
	Degraded float64
	// BreakerState is the 0/1/2 closed/half-open/open gauge convention.
	BreakerState float64
}

// Stats snapshots the durability counters.
func (d *Durable) Stats() DurableStats {
	st := DurableStats{
		Appends:      d.appends.Load(),
		Bytes:        d.bytes.Load(),
		Errors:       d.errors.Load(),
		Skipped:      d.skipped.Load(),
		Corrupt:      d.corrupt.Load(),
		Replayed:     d.replayed.Load(),
		Checkpoints:  d.checkpoints.Load(),
		Spilled:      d.spilled.Load(),
		BreakerState: d.breaker.StateValue(),
	}
	if d.Degraded() {
		st.Degraded = 1
	}
	for _, l := range d.logs {
		ls := l.Stats()
		st.Fsyncs += ls.Syncs
		st.Segments += ls.Rotates
	}
	return st
}
