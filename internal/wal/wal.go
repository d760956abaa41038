// Package wal implements the warehouse's write-ahead log: a segmented
// append-only record log that makes the in-memory Loki store and TSDB head
// crash-recoverable. Every accepted ingest is framed, checksummed and
// appended to a per-shard segment file before the push is acknowledged;
// on restart, replaying checkpoint + WAL reconstructs the exact in-memory
// state the process lost.
//
// The paper's warehouse survives node reboots because the real Loki and
// VictoriaMetrics are durable; this package is the reproduction's version
// of that property, kept deliberately simple: length-prefixed records with
// a CRC32C (Castagnoli) checksum, segment rotation at a byte threshold,
// and checkpoint-based truncation so replay cost stays bounded by the
// checkpoint interval, not by history.
//
// Torn tails are expected, not exceptional: a crash mid-write leaves a
// partial record at the end of the last segment. Replay stops a segment at
// the first bad length or checksum, counts the corruption, optionally
// truncates the file back to the last good record, and keeps going —
// losing the torn record, never the log.
//
// # The durable store directory
//
// Both stores are made durable by one state machine, Durable (durable.go),
// over one directory each:
//
//	wal/shard-NN/%08d.wal   one segmented log per lock stripe of the store
//	checkpoint.json         {"version","cuts",<the store's rows>}
//	CLEAN                   marker: the last Shutdown's checkpoint covers everything
//
// A store contributes only what it alone knows (Store): how to apply one
// record, how to rebuild itself from checkpoint rows, and how to snapshot
// one shard. Everything else is decided here, once:
//
//   - Append. A record is logged under the same per-stream mutex that
//     guards the in-memory append, so a snapshot can never land between an
//     append and its record. A failed append is absorbed by the degradation
//     breaker — the store keeps ingesting in memory, counted in
//     DurableStats — and never reaches the pusher.
//   - Checkpoint. Per shard: freeze (the store's locks) → rotate the log →
//     snapshot → release, so the rows cover exactly the segments below the
//     recorded cut. The document goes to checkpoint.json.tmp, is fsynced and
//     renamed; only then are covered segments and dormant shard directories
//     deleted. Any failure leaves the previous checkpoint and every segment
//     in place: recovery is never worse than before the attempt.
//   - Shutdown. A final checkpoint, then CLEAN — but only if no append,
//     error or skip was counted since a baseline taken before that
//     checkpoint began. A missing marker costs a replay; a wrong one would
//     lose a record.
//   - Recovery (OpenDurable). CLEAN present: restore the checkpoint, clear
//     its cuts, then delete the log, then consume the marker — in that
//     order, so a crash anywhere re-enters the same path and stale cuts can
//     never prune a later generation's segments. Otherwise: restore the
//     checkpoint if one parses (an unparsable one is counted corrupt and
//     skipped; an unreadable one fails the open), drop the segments below
//     each cut, and replay every shard-* directory in name order, counting
//     and skipping corrupt records and repairing torn tails.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// FsyncPolicy says when appended records are flushed to stable storage.
type FsyncPolicy int

const (
	// FsyncInterval syncs at most once per fsyncInterval (250 ms), on the
	// append path (the default: bounded loss window, near-zero overhead).
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways syncs after every append: zero loss window, slowest.
	FsyncAlways
	// FsyncNever leaves flushing to the OS: fastest, loses the page cache
	// on power failure (a process crash alone loses nothing).
	FsyncNever
)

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("fsync(%d)", int(p))
}

// ParseFsyncPolicy parses the -wal-fsync flag values.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return FsyncAlways, nil
	case "interval", "":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always|interval|never)", s)
}

// Default tuning constants.
const (
	defaultSegmentBytes = 4 << 20 // rotate segments at 4 MiB
	fsyncInterval       = 250 * time.Millisecond
	// MaxRecordBytes caps a single record; a length prefix above it is
	// treated as corruption rather than an allocation request.
	MaxRecordBytes = 64 << 20
)

// frame layout: [len uint32 LE][crc32c(payload) uint32 LE][payload].
const frameHeader = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt marks a record that failed the length or checksum check.
var ErrCorrupt = errors.New("wal: corrupt record")

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("wal: log closed")

// Options configure a Log and, through OpenDurable, a durable store
// directory. Zero values take the defaults above.
type Options struct {
	Fsync FsyncPolicy
	// WrapWriter, when set, wraps every segment/spill/checkpoint file
	// writer — the chaos injector's hook for disk write faults (failing,
	// short and ENOSPC writes). Nil writes straight through.
	WrapWriter func(io.Writer) io.Writer
	// FaultHook, when set, is consulted before sync/rotate/checkpoint
	// operations with the operation name; a non-nil return fails the
	// operation. The chaos injector's hook for non-write disk faults.
	FaultHook func(op string) error
	// Now is the clock driving the FsyncInterval policy and (via
	// OpenDurable) the degradation breaker; the pipeline injects its
	// simulated clock so sync cadence stays deterministic under simulated
	// time. Nil means time.Now.
	Now func() time.Time

	// segmentBytes overrides defaultSegmentBytes; only the package's
	// rotation tests shrink it.
	segmentBytes int
}

func (o Options) withDefaults() Options {
	if o.segmentBytes <= 0 {
		o.segmentBytes = defaultSegmentBytes
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Log is one segmented append-only record log rooted at a directory.
// It is safe for concurrent Append calls.
type Log struct {
	dir string
	opt Options

	mu       sync.Mutex
	f        *os.File
	w        io.Writer // f, possibly chaos-wrapped
	idx      int       // current segment index
	size     int64     // bytes written to the current segment
	lastSync time.Time
	closed   bool

	appends int64
	bytes   int64
	syncs   int64
	rotates int64
}

// segmentName renders the canonical segment file name.
func segmentName(idx int) string { return fmt.Sprintf("%08d.wal", idx) }

// parseSegmentName returns the index of a segment file name, ok=false for
// foreign files.
func parseSegmentName(name string) (int, bool) {
	if !strings.HasSuffix(name, ".wal") || len(name) != 12 {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimSuffix(name, ".wal"))
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// listSegments returns the segment indices present in dir, sorted.
func listSegments(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var idxs []int
	for _, e := range ents {
		if n, ok := parseSegmentName(e.Name()); ok {
			idxs = append(idxs, n)
		}
	}
	sort.Ints(idxs)
	return idxs, nil
}

// Open creates (or reopens) a log in dir. Appends always go to a fresh
// segment numbered after any existing one — a reopened log never appends
// to a file that may carry a torn tail; Replay handles those.
func Open(dir string, opt Options) (*Log, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	idxs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	next := 1
	if len(idxs) > 0 {
		next = idxs[len(idxs)-1] + 1
	}
	l := &Log{dir: dir, opt: opt}
	if err := l.openSegmentLocked(next); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *Log) openSegmentLocked(idx int) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segmentName(idx)), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	l.w = io.Writer(f)
	if l.opt.WrapWriter != nil {
		l.w = l.opt.WrapWriter(f)
	}
	l.idx = idx
	l.size = 0
	return nil
}

// EncodeRecord frames a payload: length prefix, CRC32C, payload.
func EncodeRecord(payload []byte) []byte {
	buf := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	copy(buf[frameHeader:], payload)
	return buf
}

// DecodeRecord parses one framed record from the front of buf, returning
// the payload and the total bytes consumed. It returns ErrCorrupt for a
// bad length or checksum and io.ErrUnexpectedEOF for a torn (incomplete)
// frame — the caller decides whether a torn tail is corruption.
func DecodeRecord(buf []byte) (payload []byte, n int, err error) {
	if len(buf) < frameHeader {
		return nil, 0, io.ErrUnexpectedEOF
	}
	ln := binary.LittleEndian.Uint32(buf[0:4])
	if ln > MaxRecordBytes {
		return nil, 0, fmt.Errorf("%w: length %d exceeds cap", ErrCorrupt, ln)
	}
	if len(buf) < frameHeader+int(ln) {
		return nil, 0, io.ErrUnexpectedEOF
	}
	payload = buf[frameHeader : frameHeader+int(ln)]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(buf[4:8]) {
		return nil, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return payload, frameHeader + int(ln), nil
}

// Append writes one record and applies the fsync policy. On a write
// error the segment is truncated back to the last whole record (best
// effort) so a later recovery never sees the partial frame, and the error
// is returned for the store's degradation breaker to count.
func (l *Log) Append(payload []byte) error {
	rec := EncodeRecord(payload)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.size > 0 && l.size+int64(len(rec)) > int64(l.opt.segmentBytes) {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := l.w.Write(rec); err != nil {
		// Roll back the torn frame so this segment stays parseable.
		_ = l.f.Truncate(l.size)
		_, _ = l.f.Seek(l.size, io.SeekStart)
		return err
	}
	l.size += int64(len(rec))
	l.appends++
	l.bytes += int64(len(rec))
	switch l.opt.Fsync {
	case FsyncAlways:
		return l.syncLocked()
	case FsyncInterval:
		if now := l.opt.Now(); now.Sub(l.lastSync) >= fsyncInterval {
			return l.syncLocked()
		}
	}
	return nil
}

func (l *Log) syncLocked() error {
	if l.opt.FaultHook != nil {
		if err := l.opt.FaultHook("sync"); err != nil {
			return err
		}
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.syncs++
	l.lastSync = l.opt.Now()
	return nil
}

// Sync flushes the current segment to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

func (l *Log) rotateLocked() error {
	if l.opt.FaultHook != nil {
		if err := l.opt.FaultHook("rotate"); err != nil {
			return err
		}
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.rotates++
	return l.openSegmentLocked(l.idx + 1)
}

// Rotate seals the current segment and starts a new one, returning the
// new segment's index. The checkpointer rotates before snapshotting so
// everything older than the returned index is covered by the snapshot.
func (l *Log) Rotate() (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if err := l.rotateLocked(); err != nil {
		return 0, err
	}
	return l.idx, nil
}

// DropBefore deletes segments with index < idx — checkpoint truncation.
func (l *Log) DropBefore(idx int) error { return dropSegmentsBefore(l.dir, idx) }

// dropSegmentsBefore removes segments with index < idx from a WAL
// directory, open or not: the checkpointer truncates its own logs, and
// recovery prunes segments the checkpoint covers before replaying.
func dropSegmentsBefore(dir string, idx int) error {
	idxs, err := listSegments(dir)
	if err != nil {
		return err
	}
	var firstErr error
	for _, n := range idxs {
		if n >= idx {
			break
		}
		if err := os.Remove(filepath.Join(dir, segmentName(n))); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Stats is a point-in-time snapshot of log counters.
type Stats struct {
	Appends  int64
	Bytes    int64
	Syncs    int64
	Rotates  int64
	Segment  int
	SegBytes int64
}

// Stats snapshots the log counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{Appends: l.appends, Bytes: l.bytes, Syncs: l.syncs,
		Rotates: l.rotates, Segment: l.idx, SegBytes: l.size}
}

// Close syncs and closes the current segment. If the final segment is
// empty it is removed, so clean shutdowns leave no zero-byte litter.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	if l.size == 0 {
		_ = os.Remove(filepath.Join(l.dir, segmentName(l.idx)))
	}
	return err
}

// ReplayStats reports what a Replay pass found.
type ReplayStats struct {
	Segments int
	Records  int
	Bytes    int64
	// Corrupt counts records dropped for a bad length or checksum,
	// including torn tails. Data before the first corruption in each
	// segment is always delivered.
	Corrupt int
	// Truncated reports whether a segment file was physically truncated
	// back to its last good record during repair.
	Truncated bool
}

// Replay reads every segment in dir in order, calling fn for each intact
// record. Corruption (bad CRC, oversized length, torn tail) ends that
// segment's replay: the bad record and everything after it in the segment
// are dropped and counted, the file is truncated back to the last good
// record when repair is true, and replay continues with the next segment.
// A missing directory replays nothing. fn errors abort the replay.
func Replay(dir string, repair bool, fn func(payload []byte) error) (ReplayStats, error) {
	var st ReplayStats
	idxs, err := listSegments(dir)
	if err != nil {
		return st, err
	}
	for _, idx := range idxs {
		path := filepath.Join(dir, segmentName(idx))
		buf, err := os.ReadFile(path)
		if err != nil {
			return st, err
		}
		st.Segments++
		off := 0
		for off < len(buf) {
			payload, n, err := DecodeRecord(buf[off:])
			if err != nil {
				// First bad frame: everything from here on in this
				// segment is untrustworthy. Drop it, optionally repair.
				st.Corrupt++
				if repair {
					if terr := os.Truncate(path, int64(off)); terr == nil {
						st.Truncated = true
					}
				}
				break
			}
			if err := fn(payload); err != nil {
				return st, err
			}
			st.Records++
			st.Bytes += int64(len(payload))
			off += n
		}
	}
	return st, nil
}

// RemoveDormant deletes whole subdirectories of root other than keep —
// the checkpointer's cleanup for per-shard WAL directories left behind by
// a run with a different shard count (their content is covered by the
// snapshot it just wrote).
func RemoveDormant(root string, keep map[string]bool) error {
	ents, err := os.ReadDir(root)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	var firstErr error
	for _, e := range ents {
		if !e.IsDir() || keep[e.Name()] {
			continue
		}
		if err := os.RemoveAll(filepath.Join(root, e.Name())); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
