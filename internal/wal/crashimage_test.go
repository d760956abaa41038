package wal_test

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"testing"

	"shastamon/internal/wal"
)

var errDiskDied = errors.New("crashimage: disk died")

// disk is a plain counting fault seam over the two hooks a durable store
// already takes: every Write through Options.WrapWriter and every
// Options.FaultHook operation (sync, rotate, checkpoint, spill) is one op.
// Op number failAt is where the disk dies: a write lands half its bytes
// and fails, a hooked operation fails, and every later op fails outright.
type disk struct {
	ops, failAt int
	dead        bool
	diedIn      string
}

// next counts one op and reports whether it is the one that kills the disk.
func (d *disk) next(what string) (dies bool) {
	d.ops++
	if !d.dead && d.ops == d.failAt {
		d.dead, d.diedIn = true, what
		return true
	}
	return false
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func (d *disk) options() wal.Options {
	opt := always
	opt.WrapWriter = func(w io.Writer) io.Writer {
		return writerFunc(func(p []byte) (int, error) {
			if d.next(fmt.Sprintf("write of %d bytes", len(p))) {
				n, _ := w.Write(p[:len(p)/2])
				return n, errDiskDied
			}
			if d.dead {
				return 0, errDiskDied
			}
			return w.Write(p)
		})
	}
	opt.FaultHook = func(op string) error {
		if d.next(op) || d.dead {
			return errDiskDied
		}
		return nil
	}
	return opt
}

// crashScript is the fixed life of one data directory: push (loki: enough
// to seal and spill a chunk) → Checkpoint → push → Checkpoint → push →
// Shutdown → reopen → push, under fsync=always. It returns, per tenant,
// how many items of each stream were pushed and how many of those were
// acknowledged: a push is acknowledged while the store that took it has
// counted no WAL error and skipped no append.
func crashScript(t *testing.T, b binding, dir string, d *disk) (acked, pushed map[string]int) {
	const per = 2
	acked, pushed = map[string]int{}, map[string]int{}
	lost := false
	steps := func(s store, n int) {
		for ; n > 0; n-- {
			for _, tid := range tenants {
				if err := s.push(tid, pushed[tid], per); err != nil {
					t.Fatalf("%s: push must never fail on a disk fault: %v", b.name, err)
				}
				pushed[tid] += per
				if st := s.WALStats(); st.Errors != 0 || st.Skipped != 0 {
					lost = true
				}
				if !lost {
					acked[tid] = pushed[tid]
				}
			}
		}
	}
	s, _, err := b.open(dir, d.options())
	if err != nil {
		t.Fatalf("%s: open fresh directory: %v", b.name, err)
	}
	steps(s, 3)
	_ = s.Checkpoint() // errors are the dead disk's; the image is what counts
	steps(s, 1)
	_ = s.Checkpoint()
	steps(s, 1)
	_ = s.Shutdown()
	s, _, err = b.open(dir, d.options())
	if err != nil {
		return acked, pushed // the dead disk failed the restart itself
	}
	steps(s, 1)
	return acked, pushed
}

// checkImage recovers a crash image into a fresh store and holds it to
// the contract: every acknowledged item present, nothing that was never
// pushed, per-stream order with no duplicates, and recovering the
// recovered directory again changes nothing.
func checkImage(t *testing.T, b binding, image string, acked, pushed map[string]int, when string) {
	t.Helper()
	s, _, err := b.open(image, wal.Options{})
	if err != nil {
		t.Fatalf("%s %s: recovery failed: %v (image %s)", b.name, when, err, image)
	}
	got := s.dump(t)
	known := map[string]bool{}
	for _, tid := range tenants {
		want := wantItems(b, pushed[tid])
		for _, name := range streams[tid] {
			key := tid + "/" + name
			known[key] = true
			next := 0 // first pushed item a recovered one may still match
			for i, item := range got[key] {
				for next < len(want[key]) && want[key][next] != item {
					if next < acked[tid] {
						t.Fatalf("%s %s: %s lost acknowledged item %d of %d (image %s)", b.name, when, key, next, acked[tid], image)
					}
					next++
				}
				if next == len(want[key]) {
					t.Fatalf("%s %s: %s recovered item %d = %s: never pushed, duplicated or out of order (image %s)", b.name, when, key, i, item, image)
				}
				next++
			}
			if next < acked[tid] {
				t.Fatalf("%s %s: %s recovered %d items, %d were acknowledged (image %s)", b.name, when, key, len(got[key]), acked[tid], image)
			}
		}
	}
	for key := range got {
		if !known[key] {
			t.Fatalf("%s %s: recovered stream %s was never pushed (image %s)", b.name, when, key, image)
		}
	}
	again, _, err := b.open(image, wal.Options{})
	if err != nil {
		t.Fatalf("%s %s: second recovery failed: %v (image %s)", b.name, when, err, image)
	}
	if got2 := again.dump(t); !reflect.DeepEqual(got2, got) {
		t.Fatalf("%s %s: second recovery of the same image differs from the first (image %s)", b.name, when, image)
	}
}

// TestCrashImageEnumeration kills the disk at every write and every hooked
// operation of crashScript in turn, copies the directory as it then stands
// (the SIGKILL image) and recovers the copy. One table, both stores,
// public API only.
//
// The enumeration covers what the existing seams reach — WrapWriter writes
// and the sync / rotate / checkpoint / spill FaultHook operations. Crash
// points after a rename or an unlink (checkpoint.json.tmp → checkpoint.json,
// segment and spill deletion, the CLEAN marker) need a seam of their own
// and stay with ROADMAP item 5(b).
func TestCrashImageEnumeration(t *testing.T) {
	for _, b := range bindings {
		b := b
		t.Run(b.name, func(t *testing.T) {
			healthy := &disk{}
			dir := t.TempDir()
			acked, pushed := crashScript(t, b, dir, healthy)
			if !reflect.DeepEqual(acked, pushed) {
				t.Fatalf("healthy run acknowledged %v of %v", acked, pushed)
			}
			if b.name == "loki" {
				if spills, _ := filepath.Glob(filepath.Join(dir, "chunks", "*.chk")); len(spills) == 0 {
					t.Fatal("script never spilled a sealed chunk")
				}
			}
			image := t.TempDir()
			copyTree(t, dir, image)
			checkImage(t, b, image, acked, pushed, "healthy disk")

			total := healthy.ops
			t.Logf("%d writes and hooked operations", total)
			if total < 50 {
				t.Fatalf("script performed only %d ops", total)
			}
			for k := 1; k <= total; k++ {
				d := &disk{failAt: k}
				dir := t.TempDir()
				acked, pushed := crashScript(t, b, dir, d)
				if !d.dead {
					t.Fatalf("k=%d of %d: the script never reached that op", k, total)
				}
				image := t.TempDir()
				copyTree(t, dir, image)
				checkImage(t, b, image, acked, pushed, fmt.Sprintf("disk died at op %d of %d (%s)", k, total, d.diedIn))
			}
		})
	}
}
