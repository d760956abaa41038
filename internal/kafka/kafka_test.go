package kafka

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func newTopic(t *testing.T, b *Broker, name string, parts int) {
	t.Helper()
	if err := b.CreateTopic(name, parts); err != nil {
		t.Fatal(err)
	}
}

func TestCreateTopicValidation(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("t", 0); err == nil {
		t.Fatal("0 partitions accepted")
	}
	newTopic(t, b, "t", 1)
	if err := b.CreateTopic("t", 1); !errors.Is(err, ErrTopicExists) {
		t.Fatalf("err = %v", err)
	}
	if got := b.Topics(); len(got) != 1 || got[0] != "t" {
		t.Fatalf("%v", got)
	}
}

func TestProduceFetchOrdered(t *testing.T) {
	b := NewBroker()
	newTopic(t, b, "telemetry", 1)
	for i := 0; i < 10; i++ {
		_, off, err := b.Produce("telemetry", nil, []byte(fmt.Sprintf("m%d", i)), time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if off != int64(i) {
			t.Fatalf("offset %d != %d", off, i)
		}
	}
	msgs, err := b.Fetch("telemetry", 0, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 4 || string(msgs[0].Value) != "m3" || string(msgs[3].Value) != "m6" {
		t.Fatalf("%+v", msgs)
	}
}

func TestKeyedPartitioningIsSticky(t *testing.T) {
	b := NewBroker()
	newTopic(t, b, "t", 8)
	p1, _, _ := b.Produce("t", []byte("x1000c0"), []byte("a"), time.Time{})
	p2, _, _ := b.Produce("t", []byte("x1000c0"), []byte("b"), time.Time{})
	if p1 != p2 {
		t.Fatalf("same key landed on %d and %d", p1, p2)
	}
}

func TestFetchErrors(t *testing.T) {
	b := NewBroker()
	newTopic(t, b, "t", 1)
	if _, err := b.Fetch("nope", 0, 0, 1); !errors.Is(err, ErrUnknownTopic) {
		t.Fatalf("err = %v", err)
	}
	if _, err := b.Fetch("t", 5, 0, 1); !errors.Is(err, ErrUnknownPartition) {
		t.Fatalf("err = %v", err)
	}
	if _, err := b.Fetch("t", 0, 99, 1); !errors.Is(err, ErrOffsetOutOfRange) {
		t.Fatalf("err = %v", err)
	}
	// Fetch at head returns empty, not error.
	msgs, err := b.Fetch("t", 0, 0, 1)
	if err != nil || msgs != nil {
		t.Fatalf("%v %v", msgs, err)
	}
}

func TestFetchWaitWakesOnProduce(t *testing.T) {
	b := NewBroker()
	newTopic(t, b, "t", 1)
	done := make(chan []Message, 1)
	go func() {
		msgs, _ := b.FetchWait("t", 0, 0, 10, 2*time.Second)
		done <- msgs
	}()
	time.Sleep(10 * time.Millisecond)
	_, _, _ = b.Produce("t", nil, []byte("wake"), time.Time{})
	select {
	case msgs := <-done:
		if len(msgs) != 1 || string(msgs[0].Value) != "wake" {
			t.Fatalf("%+v", msgs)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("FetchWait did not wake")
	}
}

func TestFetchWaitTimeout(t *testing.T) {
	b := NewBroker()
	newTopic(t, b, "t", 1)
	start := time.Now()
	msgs, err := b.FetchWait("t", 0, 0, 10, 20*time.Millisecond)
	if err != nil || len(msgs) != 0 {
		t.Fatalf("%v %v", msgs, err)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("returned before timeout")
	}
}

func TestRetentionTruncate(t *testing.T) {
	b := NewBroker()
	newTopic(t, b, "t", 1)
	base := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		_, _, _ = b.Produce("t", nil, []byte{byte(i)}, base.Add(time.Duration(i)*time.Hour))
	}
	dropped := b.TruncateBefore(base.Add(5 * time.Hour))
	if dropped != 5 {
		t.Fatalf("dropped = %d", dropped)
	}
	low, high, _ := b.Watermarks("t", 0)
	if low != 5 || high != 10 {
		t.Fatalf("watermarks %d %d", low, high)
	}
	// A fetch from below the low watermark starts at it, and the message
	// says where it really is.
	if msgs, err := b.Fetch("t", 0, 0, 1); err != nil || len(msgs) != 1 || msgs[0].Offset != 5 {
		t.Fatalf("fetch below low watermark: %v %v, want offset 5", msgs, err)
	}
	// Above the high watermark is still an error.
	if _, err := b.Fetch("t", 0, 11, 1); !errors.Is(err, ErrOffsetOutOfRange) {
		t.Fatalf("err = %v", err)
	}
	msgs, err := b.Fetch("t", 0, 5, 100)
	if err != nil || len(msgs) != 5 {
		t.Fatalf("%v %v", msgs, err)
	}
}

func TestGroupAssignmentRebalance(t *testing.T) {
	b := NewBroker()
	newTopic(t, b, "t", 4)
	b.JoinGroup("g", "m1")
	parts, err := b.Assignment("g", "m1", "t")
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 4 {
		t.Fatalf("solo member should own all: %v", parts)
	}
	b.JoinGroup("g", "m2")
	p1, _ := b.Assignment("g", "m1", "t")
	p2, _ := b.Assignment("g", "m2", "t")
	if len(p1)+len(p2) != 4 || len(p1) != 2 {
		t.Fatalf("rebalance: %v %v", p1, p2)
	}
	seen := map[int]bool{}
	for _, p := range append(p1, p2...) {
		if seen[p] {
			t.Fatalf("partition %d double-assigned", p)
		}
		seen[p] = true
	}
	b.LeaveGroup("g", "m1")
	p2, _ = b.Assignment("g", "m2", "t")
	if len(p2) != 4 {
		t.Fatalf("after leave: %v", p2)
	}
}

func TestCommittedOffsets(t *testing.T) {
	b := NewBroker()
	newTopic(t, b, "t", 1)
	if got := b.Committed("g", "t", 0); got != 0 {
		t.Fatalf("initial commit %d", got)
	}
	b.Commit("g", "t", 0, 42)
	if got := b.Committed("g", "t", 0); got != 42 {
		t.Fatalf("commit %d", got)
	}
}

func TestConsumerPollCommits(t *testing.T) {
	b := NewBroker()
	newTopic(t, b, "events", 2)
	for i := 0; i < 10; i++ {
		_, _, _ = b.Produce("events", []byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i)), time.Time{})
	}
	c := NewConsumer(b, "g", "m1", "events")
	defer c.Close()
	var got []Message
	for len(got) < 10 {
		msgs, err := c.Poll(4, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) == 0 {
			break
		}
		got = append(got, msgs...)
	}
	if len(got) != 10 {
		t.Fatalf("polled %d messages", len(got))
	}
	// Re-poll returns nothing: offsets were committed.
	msgs, _ := c.Poll(10, 0)
	if len(msgs) != 0 {
		t.Fatalf("uncommitted redelivery: %+v", msgs)
	}
}

func TestConsumerSkipsRetentionGap(t *testing.T) {
	b := NewBroker()
	newTopic(t, b, "t", 1)
	base := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 5; i++ {
		_, _, _ = b.Produce("t", nil, []byte{byte(i)}, base.Add(time.Duration(i)*time.Hour))
	}
	c := NewConsumer(b, "g", "m", "t")
	defer c.Close()
	b.TruncateBefore(base.Add(3 * time.Hour))
	msgs, err := c.Poll(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 || msgs[0].Offset != 3 {
		t.Fatalf("%+v", msgs)
	}
}

func TestConsumerClosedPoll(t *testing.T) {
	b := NewBroker()
	newTopic(t, b, "t", 1)
	c := NewConsumer(b, "g", "m", "t")
	c.Close()
	c.Close() // idempotent
	msgs, err := c.Poll(1, 0)
	if err != nil || msgs != nil {
		t.Fatalf("%v %v", msgs, err)
	}
}

func TestConcurrentProducers(t *testing.T) {
	b := NewBroker()
	newTopic(t, b, "t", 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				_, _, _ = b.Produce("t", []byte{byte(g)}, []byte("m"), time.Time{})
			}
		}(g)
	}
	wg.Wait()
	if got := b.Stats().Messages; got != 4000 {
		t.Fatalf("messages = %d", got)
	}
	total := int64(0)
	for p := 0; p < 4; p++ {
		_, high, _ := b.Watermarks("t", p)
		total += high
	}
	if total != 4000 {
		t.Fatalf("sum of watermarks = %d", total)
	}
}

// Property: per-partition offsets are dense and ordered regardless of how
// producers interleave.
func TestPropertyOffsetsDense(t *testing.T) {
	f := func(n uint8, parts uint8) bool {
		p := int(parts)%4 + 1
		b := NewBroker()
		if err := b.CreateTopic("t", p); err != nil {
			return false
		}
		for i := 0; i < int(n); i++ {
			if _, _, err := b.Produce("t", []byte{byte(i % 7)}, []byte("v"), time.Time{}); err != nil {
				return false
			}
		}
		total := int64(0)
		for pi := 0; pi < p; pi++ {
			low, high, err := b.Watermarks("t", pi)
			if err != nil || low != 0 {
				return false
			}
			msgs, err := b.Fetch("t", pi, 0, int(n)+1)
			if err != nil || int64(len(msgs)) != high {
				return false
			}
			for i, m := range msgs {
				if m.Offset != int64(i) {
					return false
				}
			}
			total += high
		}
		return total == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkProduce(b *testing.B) {
	br := NewBroker()
	_ = br.CreateTopic("t", 8)
	val := []byte(`{"Context":"x1203c1b0","Severity":"Warning"}`)
	b.SetBytes(int64(len(val)))
	b.ReportAllocs()
	ts := time.Unix(0, 0)
	for i := 0; i < b.N; i++ {
		if _, _, err := br.Produce("t", []byte("key"), val, ts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProduceFetchPipeline(b *testing.B) {
	br := NewBroker()
	_ = br.CreateTopic("t", 1)
	val := []byte("telemetry sample payload with some realistic length to it")
	ts := time.Unix(0, 0)
	b.SetBytes(int64(len(val)))
	b.ReportAllocs()
	off := int64(0)
	for i := 0; i < b.N; i++ {
		_, _, _ = br.Produce("t", nil, val, ts)
		msgs, err := br.Fetch("t", 0, off, 100)
		if err != nil {
			b.Fatal(err)
		}
		off += int64(len(msgs))
	}
}

func TestGroupLag(t *testing.T) {
	b := NewBroker()
	newTopic(t, b, "t", 2)
	for i := 0; i < 10; i++ {
		_, _, _ = b.Produce("t", []byte{byte(i)}, []byte("v"), time.Time{})
	}
	c := NewConsumer(b, "g", "m", "t")
	defer c.Close()
	// Consume some, leaving lag.
	msgs, err := c.Poll(6, 0)
	if err != nil || len(msgs) != 6 {
		t.Fatalf("%d %v", len(msgs), err)
	}
	lag := b.GroupLag("g")
	total := int64(0)
	for _, l := range lag {
		total += l
	}
	if total != 4 {
		t.Fatalf("lag %v", lag)
	}
	if got := b.Groups(); len(got) != 1 || got[0] != "g" {
		t.Fatalf("groups %v", got)
	}
	if b.GroupLag("ghost") != nil {
		t.Fatal("lag for unknown group")
	}
	// Drain fully: lag reaches zero.
	for {
		msgs, _ := c.Poll(10, 0)
		if len(msgs) == 0 {
			break
		}
	}
	for _, l := range b.GroupLag("g") {
		if l != 0 {
			t.Fatalf("residual lag %v", b.GroupLag("g"))
		}
	}
}
