package kafka

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// A manual-commit consumer that dies mid-batch re-delivers the batch to
// the next group member — the at-least-once contract the events topic
// needs (auto-commit would drop the records on the floor).
func TestManualCommitRedelivery(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("events", 1); err != nil {
		t.Fatal(err)
	}
	ts := time.Unix(100, 0)
	for i := 0; i < 5; i++ {
		if _, _, err := b.Produce("events", nil, []byte(fmt.Sprintf("m%d", i)), ts); err != nil {
			t.Fatal(err)
		}
	}

	c1 := NewManualConsumer(b, "g", "m1", "events")
	batch, err := c1.Poll(3, 0)
	if err != nil || len(batch) != 3 {
		t.Fatalf("poll: %v %d", err, len(batch))
	}
	// Consecutive polls advance the in-memory position past the batch.
	rest, err := c1.Poll(10, 0)
	if err != nil || len(rest) != 2 {
		t.Fatalf("second poll: %v %d", err, len(rest))
	}
	// Crash before CommitPolled: nothing was committed.
	c1.Close()

	c2 := NewManualConsumer(b, "g", "m2", "events")
	redelivered, err := c2.Poll(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(redelivered) != 5 || string(redelivered[0].Value) != "m0" {
		t.Fatalf("redelivery after crash: %d records, first %q",
			len(redelivered), redelivered[0].Value)
	}
	// This time the handoff completes; a third member starts at the head.
	c2.CommitPolled()
	c2.Close()
	c3 := NewManualConsumer(b, "g", "m3", "events")
	defer c3.Close()
	again, err := c3.Poll(10, 0)
	if err != nil || len(again) != 0 {
		t.Fatalf("committed batch redelivered: %v %d", err, len(again))
	}
}

// Auto-commit mode still commits as it returns (the at-most-once sensor
// path is unchanged).
func TestAutoCommitUnchanged(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("s", 1); err != nil {
		t.Fatal(err)
	}
	_, _, _ = b.Produce("s", nil, []byte("x"), time.Unix(1, 0))
	c := NewConsumer(b, "g", "m", "s")
	if msgs, err := c.Poll(10, 0); err != nil || len(msgs) != 1 {
		t.Fatalf("%v %d", err, len(msgs))
	}
	c.Close()
	c2 := NewConsumer(b, "g", "m2", "s")
	defer c2.Close()
	if msgs, err := c2.Poll(10, 0); err != nil || len(msgs) != 0 {
		t.Fatalf("auto-committed message redelivered: %v %d", err, len(msgs))
	}
}

// Repeated FetchWait timeouts must not leak waiters: each timed-out poll
// prunes its channel from the partition's waiter slice.
func TestFetchWaitTimeoutPrunesWaiters(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	tp, err := b.topic("t")
	if err != nil {
		t.Fatal(err)
	}
	p := tp.partitions[0]
	for i := 0; i < 20; i++ {
		msgs, err := b.FetchWait("t", 0, 0, 10, time.Millisecond)
		if err != nil || len(msgs) != 0 {
			t.Fatalf("%v %d", err, len(msgs))
		}
	}
	if n := p.waiterCount(); n != 0 {
		t.Fatalf("waiters leaked: %d after 20 timeouts", n)
	}
	// A waiter that is actually woken still works.
	done := make(chan []Message, 1)
	go func() {
		msgs, _ := b.FetchWait("t", 0, 0, 10, 5*time.Second)
		done <- msgs
	}()
	for p.waiterCount() == 0 {
		time.Sleep(time.Millisecond)
	}
	if _, _, err := b.Produce("t", nil, []byte("wake"), time.Unix(1, 0)); err != nil {
		t.Fatal(err)
	}
	if msgs := <-done; len(msgs) != 1 {
		t.Fatalf("woken fetch got %d messages", len(msgs))
	}
	if n := p.waiterCount(); n != 0 {
		t.Fatalf("waiters after wake: %d", n)
	}
}

// Poll self-heals when retention truncation races it: however often
// TruncateBefore moves the low watermark past the consumer's position
// between two of its broker calls, Poll surfaces no error, hands out
// offsets in strictly increasing order, and ends on the newest message.
// The producer does a fixed number of produce/truncate rounds, so the
// test's work is the same on every host.
func TestPollSelfHealsAfterTruncation(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	base := time.Unix(0, 0)
	c := NewConsumer(b, "g", "m", "t")
	defer c.Close()

	const rounds = 5000
	produced := make(chan struct{})
	// Producer+truncator: append with advancing timestamps, truncate hard
	// on the heels of the appends so the consumer's offsets keep expiring.
	go func() {
		defer close(produced)
		for i := 0; i < rounds; i++ {
			ts := base.Add(time.Duration(i) * time.Second)
			_, _, _ = b.Produce("t", nil, []byte(fmt.Sprintf("m%d", i)), ts)
			b.TruncateBefore(ts) // retain only the newest message
		}
	}()

	last := int64(-1)
	poll := func() {
		msgs, err := c.Poll(10, 0)
		if err != nil {
			t.Fatalf("poll surfaced: %v", err)
		}
		for _, m := range msgs {
			if m.Offset <= last {
				t.Fatalf("offset %d delivered after %d", m.Offset, last)
			}
			last = m.Offset
		}
	}
	for racing := true; racing; {
		select {
		case <-produced:
			racing = false
		default:
		}
		poll()
	}
	// The newest message is never truncated: one poll after the producer
	// is done must have reached it.
	if last != rounds-1 {
		t.Fatalf("last delivered offset %d, want %d", last, rounds-1)
	}
}

// The same without a race: commit an offset, truncate past it, and poll —
// the fetch starts at the new low watermark.
func TestPollClampsCommittedOffsetPastTruncation(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		_, _, _ = b.Produce("t", nil, []byte(fmt.Sprintf("m%d", i)), time.Unix(int64(i), 0))
	}
	c := NewConsumer(b, "g", "m", "t")
	defer c.Close()
	if _, err := c.Poll(3, 0); err != nil {
		t.Fatal(err)
	}
	// Everything the consumer has seen — and more — expires.
	b.TruncateBefore(time.Unix(8, 0))
	msgs, err := c.Poll(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 || string(msgs[0].Value) != "m8" {
		t.Fatalf("msgs after truncation: %d, first %q", len(msgs), msgs[0].Value)
	}
}

// A blocking poll from a position that retention emptied the partition
// past must wait for the next append, not spin on "data available".
func TestPollWaitsWhenPositionTruncatedAway(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		_, _, _ = b.Produce("t", nil, []byte(fmt.Sprintf("m%d", i)), time.Unix(int64(i), 0))
	}
	c := NewConsumer(b, "g", "m", "t")
	defer c.Close()
	if _, err := c.Poll(3, 0); err != nil {
		t.Fatal(err)
	}
	b.TruncateBefore(time.Unix(100, 0)) // position 3, low = high = 10
	tp, err := b.topic("t")
	if err != nil {
		t.Fatal(err)
	}
	p := tp.partitions[0]
	done := make(chan []Message, 1)
	go func() {
		msgs, _ := c.Poll(10, 5*time.Second)
		done <- msgs
	}()
	for p.waiterCount() == 0 {
		select {
		case msgs := <-done:
			t.Fatalf("poll returned %v without waiting", msgs)
		default:
			runtime.Gosched()
		}
	}
	if _, _, err := b.Produce("t", nil, []byte("wake"), time.Unix(200, 0)); err != nil {
		t.Fatal(err)
	}
	if msgs := <-done; len(msgs) != 1 || msgs[0].Offset != 10 {
		t.Fatalf("woken poll got %v, want the one message at offset 10", msgs)
	}
}

func TestQuarantineAndReplay(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("events", 2); err != nil {
		t.Fatal(err)
	}
	poison := Message{
		Topic: "events", Partition: 1, Offset: 42,
		Key: []byte("x1"), Value: []byte("{not json"),
		Timestamp: time.Unix(7, 0), Headers: map[string]string{"trace": "abc"},
	}
	reason := errors.New("core: event payload: invalid character 'n'")
	if _, _, err := Quarantine(b, poison, reason); err != nil {
		t.Fatal(err)
	}

	recs, err := DLQRecords(b, "events")
	if err != nil || len(recs) != 1 {
		t.Fatalf("%v %d", err, len(recs))
	}
	m := recs[0]
	if m.Headers[HeaderDLQSource] != "events" || m.Headers[HeaderDLQReason] != reason.Error() {
		t.Fatalf("headers: %v", m.Headers)
	}
	if m.Headers[HeaderDLQPartition] != "1" || m.Headers[HeaderDLQOffset] != "42" {
		t.Fatalf("coordinates: %v", m.Headers)
	}
	if m.Headers["trace"] != "abc" || string(m.Value) != "{not json" {
		t.Fatalf("original payload lost: %v %q", m.Headers, m.Value)
	}

	// The inspection path shows the reason.
	dump := FormatDLQ(recs)
	if !strings.Contains(dump, "invalid character") || !strings.Contains(dump, "events/1@42") {
		t.Fatalf("dump: %s", dump)
	}

	// Replay puts the original payload back on the source topic without
	// the quarantine headers; a second replay is a no-op.
	n, err := ReplayDLQ(b, "events")
	if err != nil || n != 1 {
		t.Fatalf("replay: %v %d", err, n)
	}
	if n, err = ReplayDLQ(b, "events"); err != nil || n != 0 {
		t.Fatalf("second replay: %v %d", err, n)
	}
	c := NewConsumer(b, "replayed", "m", "events")
	defer c.Close()
	msgs, err := c.Poll(10, 0)
	if err != nil || len(msgs) != 1 {
		t.Fatalf("%v %d", err, len(msgs))
	}
	got := msgs[0]
	if string(got.Value) != "{not json" || got.Headers[HeaderDLQSource] != "" || got.Headers["trace"] != "abc" {
		t.Fatalf("replayed record: %q %v", got.Value, got.Headers)
	}
}

func TestQuarantineRefusesDLQRecursion(t *testing.T) {
	b := NewBroker()
	if _, _, err := Quarantine(b, Message{Topic: "x.dlq"}, errors.New("r")); err == nil {
		t.Fatal("quarantined from a DLQ topic")
	}
}

func TestDLQRecordsEmptyWithoutTopic(t *testing.T) {
	b := NewBroker()
	recs, err := DLQRecords(b, "never-quarantined")
	if err != nil || recs != nil {
		t.Fatalf("%v %v", err, recs)
	}
	n, err := ReplayDLQ(b, "never-quarantined")
	if err != nil || n != 0 {
		t.Fatalf("%v %d", err, n)
	}
}

func TestProduceHook(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("broker flaking")
	b.SetProduceHook(func(topic string) error {
		if topic == "t" {
			return boom
		}
		return nil
	})
	if _, _, err := b.Produce("t", nil, []byte("v"), time.Unix(1, 0)); !errors.Is(err, boom) {
		t.Fatalf("hook not applied: %v", err)
	}
	if _, high, _ := b.Watermarks("t", 0); high != 0 {
		t.Fatalf("failed produce appended: high=%d", high)
	}
	b.SetProduceHook(nil)
	if _, _, err := b.Produce("t", nil, []byte("v"), time.Unix(1, 0)); err != nil {
		t.Fatal(err)
	}
}
