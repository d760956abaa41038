package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func collect(t *testing.T, dir string, repair bool) ([][]byte, ReplayStats) {
	t.Helper()
	var got [][]byte
	st, err := Replay(dir, repair, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got, st
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 100; i++ {
		p := []byte(fmt.Sprintf("record-%03d-%s", i, bytes.Repeat([]byte{byte(i)}, i)))
		want = append(want, p)
		if err := l.Append(p); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, st := collect(t, dir, true)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if st.Corrupt != 0 || st.Truncated {
		t.Fatalf("clean log reported corruption: %+v", st)
	}
}

func TestSegmentRotationAndDropBefore(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{segmentBytes: 64, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := l.Append(bytes.Repeat([]byte{'x'}, 30)); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Rotates == 0 {
		t.Fatalf("expected rotations with 64-byte segments, got %+v", st)
	}
	idx, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.DropBefore(idx); err != nil {
		t.Fatal(err)
	}
	idxs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range idxs {
		if n < idx {
			t.Fatalf("segment %d survived DropBefore(%d)", n, idx)
		}
	}
	if err := l.Append([]byte("after-truncate")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := collect(t, dir, false)
	if len(got) != 1 || string(got[0]) != "after-truncate" {
		t.Fatalf("post-truncation replay = %q", got)
	}
}

func TestReopenStartsFreshSegment(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{})
	if err := l.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	first := l.Stats().Segment
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.Stats().Segment; got <= first {
		t.Fatalf("reopen segment %d, want > %d", got, first)
	}
	if err := l2.Append([]byte("two")); err != nil {
		t.Fatal(err)
	}
	got, _ := collect(t, dir, false)
	if len(got) != 2 || string(got[0]) != "one" || string(got[1]) != "two" {
		t.Fatalf("replay after reopen = %q", got)
	}
}

// TestTornTailTruncated simulates a crash mid-write: the last segment ends
// in half a record. Replay must deliver everything before the tear, count
// one corruption, and repair the file.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{Fsync: FsyncAlways})
	for i := 0; i < 10; i++ {
		if err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	seg := filepath.Join(dir, segmentName(l.Stats().Segment))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Append a torn frame: a full header promising more bytes than exist.
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := EncodeRecord([]byte("this record never finished writing"))
	if _, err := f.Write(torn[:len(torn)-5]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, st := collect(t, dir, true)
	if len(got) != 10 {
		t.Fatalf("replayed %d records, want 10", len(got))
	}
	if st.Corrupt != 1 || !st.Truncated {
		t.Fatalf("stats = %+v, want Corrupt=1 Truncated=true", st)
	}
	// After repair a second replay is clean.
	got2, st2 := collect(t, dir, true)
	if len(got2) != 10 || st2.Corrupt != 0 {
		t.Fatalf("post-repair replay: %d records, stats %+v", len(got2), st2)
	}
}

// TestCorruptMiddleSkipsRestOfSegment flips a byte mid-segment: records
// before the flip replay; the rest of that segment is dropped, but later
// segments still replay.
func TestCorruptMiddleSkipsRestOfSegment(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{Fsync: FsyncAlways})
	for i := 0; i < 5; i++ {
		if err := l.Append([]byte(fmt.Sprintf("seg1-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	seg1 := filepath.Join(dir, segmentName(l.Stats().Segment))
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte(fmt.Sprintf("seg2-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the payload of the third record in segment 1.
	buf, err := os.ReadFile(seg1)
	if err != nil {
		t.Fatal(err)
	}
	recLen := frameHeader + len("seg1-0")
	buf[2*recLen+frameHeader] ^= 0xff
	if err := os.WriteFile(seg1, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	got, st := collect(t, dir, false)
	var names []string
	for _, p := range got {
		names = append(names, string(p))
	}
	want := []string{"seg1-0", "seg1-1", "seg2-0", "seg2-1", "seg2-2"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("replay = %v, want %v", names, want)
	}
	if st.Corrupt != 1 {
		t.Fatalf("Corrupt = %d, want 1", st.Corrupt)
	}
}

func TestDecodeRecordOversizedLength(t *testing.T) {
	frame := EncodeRecord([]byte("x"))
	frame[0], frame[1], frame[2], frame[3] = 0xff, 0xff, 0xff, 0x7f
	if _, _, err := DecodeRecord(frame); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized length: err = %v, want ErrCorrupt", err)
	}
}

func TestWriteErrorRollsBack(t *testing.T) {
	dir := t.TempDir()
	fail := false
	l, err := Open(dir, Options{
		Fsync: FsyncNever,
		WrapWriter: func(w io.Writer) io.Writer {
			return writerFunc(func(p []byte) (int, error) {
				if fail {
					n := len(p) / 2
					if nn, _ := w.Write(p[:n]); nn < n {
						n = nn
					}
					return n, errors.New("injected disk error")
				}
				return w.Write(p)
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("good-1")); err != nil {
		t.Fatal(err)
	}
	fail = true
	if err := l.Append([]byte("bad")); err == nil {
		t.Fatal("append with failing writer succeeded")
	}
	fail = false
	if err := l.Append([]byte("good-2")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, st := collect(t, dir, true)
	var names []string
	for _, p := range got {
		names = append(names, string(p))
	}
	if fmt.Sprint(names) != fmt.Sprint([]string{"good-1", "good-2"}) {
		t.Fatalf("replay = %v, want [good-1 good-2]", names)
	}
	if st.Corrupt != 0 {
		t.Fatalf("rollback left a torn frame: %+v", st)
	}
}

func TestFaultHookFailsSyncAndRotate(t *testing.T) {
	dir := t.TempDir()
	deny := map[string]bool{}
	l, err := Open(dir, Options{
		segmentBytes: 32,
		Fsync:        FsyncNever,
		FaultHook: func(op string) error {
			if deny[op] {
				return fmt.Errorf("injected %s fault", op)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	deny["sync"] = true
	if err := l.Sync(); err == nil {
		t.Fatal("Sync with sync fault succeeded")
	}
	deny["rotate"] = true
	if _, err := l.Rotate(); err == nil {
		t.Fatal("Rotate with rotate fault succeeded")
	}
}

// TestFsyncIntervalUsesInjectedClock pins the FsyncInterval policy to the
// injected Options.Now: under a simulated clock the sync cadence must
// follow simulated time, not wall time.
func TestFsyncIntervalUsesInjectedClock(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(5000, 0)
	l, err := Open(dir, Options{
		Fsync: FsyncInterval,
		Now:   func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// First append syncs (lastSync is the zero time), later ones must not
	// while the simulated clock stands still.
	for i := 0; i < 10; i++ {
		if err := l.Append([]byte("rec")); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Stats().Syncs; got != 1 {
		t.Fatalf("frozen clock: %d syncs, want 1", got)
	}
	now = now.Add(fsyncInterval)
	if err := l.Append([]byte("rec")); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Syncs; got != 2 {
		t.Fatalf("advanced clock: %d syncs, want 2", got)
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	cases := map[string]FsyncPolicy{
		"always": FsyncAlways, "Interval": FsyncInterval, "never": FsyncNever, "": FsyncInterval,
	}
	for in, want := range cases {
		got, err := ParseFsyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseFsyncPolicy(sometimes) succeeded")
	}
}

func TestReplayMissingDir(t *testing.T) {
	st, err := Replay(filepath.Join(t.TempDir(), "nope"), true, func([]byte) error {
		t.Fatal("fn called for missing dir")
		return nil
	})
	if err != nil || st.Records != 0 {
		t.Fatalf("missing dir: %+v, %v", st, err)
	}
}

func TestRemoveDormant(t *testing.T) {
	root := t.TempDir()
	for _, d := range []string{"shard-00", "shard-01", "shard-07"} {
		if err := os.MkdirAll(filepath.Join(root, d), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := RemoveDormant(root, map[string]bool{"shard-00": true, "shard-01": true}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "shard-07")); !os.IsNotExist(err) {
		t.Fatal("dormant shard-07 survived")
	}
	if _, err := os.Stat(filepath.Join(root, "shard-00")); err != nil {
		t.Fatal("kept shard-00 was removed")
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
