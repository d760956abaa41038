package kafka

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"
)

// modelPart is the test's own account of one partition: what was
// produced, where each group committed, and what retention must have
// charged to whom.
type modelPart struct {
	produced int64
	low      int64
	commits  map[string]int64 // group -> committed next offset
	stamps   []time.Time      // timestamp by offset
}

// retainedBytes is what one partition holds, counted as the byte bound
// counts it.
func retainedBytes(t *testing.T, b *Broker, topicName string, part int) int64 {
	t.Helper()
	tp, err := b.topic(topicName)
	if err != nil {
		t.Fatal(err)
	}
	p := tp.partitions[part]
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bytes
}

// retentionSchedule drives one seeded random schedule of produce,
// fetch, commit and truncate steps against a broker with small segments
// and a small byte bound, and checks the retention invariants after
// every step:
//   - offsets stay contiguous and monotone across trims (a fetch from
//     the low watermark returns low, low+1, ..., high-1, and neither
//     watermark ever moves backwards);
//   - TruncateBefore moves each low watermark to the partition's first
//     message not older than the cutoff, and returns how many it passed;
//   - retained bytes stay at or below the bound plus one segment;
//   - dropped + retained = produced, per topic;
//   - the skipped count of every group is exactly the offsets it had
//     not committed when retention dropped them.
//
// It returns the messages dropped and the offsets charged as skipped.
func retentionSchedule(t *testing.T, seed int64) (dropped, lost int64) {
	rng := rand.New(rand.NewSource(seed))
	b := NewBroker()
	b.segmentCap = 1 + rng.Intn(8)
	bound := int64(200 + rng.Intn(2000))
	b.retentionBytes = bound

	topics := map[string]int{"a": 1, "b": 3}
	groups := []string{"g1", "g2", "g3"}
	model := map[string][]*modelPart{}
	for name, n := range topics {
		if err := b.CreateTopic(name, n); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			model[name] = append(model[name], &modelPart{commits: map[string]int64{}})
		}
	}
	// The largest message this schedule produces, counted as the broker
	// counts it: a segment holds at most segmentCap of them.
	const maxKey, maxValue = 4, 64
	maxMsg := int64(maxKey+maxValue+len("trace")+8) + MessageOverhead
	names := []string{"a", "b"}
	skipped := map[[2]string]int64{} // {group, topic} -> offsets lost

	clock := time.Unix(1_700_000_000, 0)
	for step := 0; step < 400; step++ {
		name := names[rng.Intn(len(names))]
		parts := model[name]
		var cutoff time.Time // set by a TruncateBefore step
		truncated := 0
		switch op := rng.Intn(10); {
		case op < 6: // produce, timestamps mostly ascending with some skew
			clock = clock.Add(time.Duration(rng.Intn(120)) * time.Second)
			m := Message{Topic: name, Value: make([]byte, rng.Intn(maxValue+1)),
				Timestamp: clock.Add(-time.Duration(rng.Intn(30)) * time.Second)}
			if rng.Intn(2) == 0 {
				m.Key = []byte(fmt.Sprintf("%03d", rng.Intn(1000))[:1+rng.Intn(maxKey-1)])
			}
			if rng.Intn(4) == 0 {
				m.Headers = map[string]string{"trace": fmt.Sprintf("%08d", rng.Intn(1e8))}
			}
			pi, off, err := b.ProduceMessage(m)
			if err != nil {
				t.Fatal(err)
			}
			if off != parts[pi].produced {
				t.Fatalf("seed %d step %d: offset %d, want %d", seed, step, off, parts[pi].produced)
			}
			parts[pi].produced++
			parts[pi].stamps = append(parts[pi].stamps, m.Timestamp)
		case op < 8: // a group fetches from its commit and maybe commits
			pi := rng.Intn(len(parts))
			g := groups[rng.Intn(len(groups))]
			msgs, err := b.Fetch(name, pi, b.Committed(g, name, pi), 1+rng.Intn(10))
			if err != nil {
				t.Fatal(err)
			}
			if len(msgs) > 0 && rng.Intn(3) > 0 {
				next := msgs[len(msgs)-1].Offset + 1
				b.Commit(g, name, pi, next)
				parts[pi].commits[g] = next
			}
		case op < 9: // the age half, at a random cutoff
			cutoff = clock.Add(-time.Duration(rng.Intn(3600)) * time.Second)
			truncated = b.TruncateBefore(cutoff)
		default: // the age half as a tick runs it, with an hour's bound
			cutoff = clock.Add(-time.Hour)
			truncated = b.TruncateBefore(cutoff)
		}

		for _, tn := range names {
			var retained int64
			for pi, mp := range model[tn] {
				low, high, err := b.Watermarks(tn, pi)
				if err != nil {
					t.Fatal(err)
				}
				if high != mp.produced || low < mp.low || low > high {
					t.Fatalf("seed %d step %d %s/%d: watermarks [%d,%d), produced %d, low was %d",
						seed, step, tn, pi, low, high, mp.produced, mp.low)
				}
				if !cutoff.IsZero() {
					want := mp.low
					for want < high && mp.stamps[want].Before(cutoff) {
						want++
					}
					if low != want {
						t.Fatalf("seed %d step %d %s/%d: TruncateBefore left low %d, want %d",
							seed, step, tn, pi, low, want)
					}
					truncated -= int(low - mp.low)
				}
				// Charge the newly dropped range [mp.low, low) to every
				// group that had committed on this partition.
				for g, next := range mp.commits {
					if next < low {
						skipped[[2]string{g, tn}] += low - max(next, mp.low)
					}
				}
				mp.low = low
				retained += high - low

				msgs, err := b.Fetch(tn, pi, 0, int(high-low)+1)
				if err != nil {
					t.Fatal(err)
				}
				var bytes int64
				for i, m := range msgs {
					if m.Offset != low+int64(i) {
						t.Fatalf("seed %d step %d %s/%d: offset %d at %d, want %d",
							seed, step, tn, pi, m.Offset, i, low+int64(i))
					}
					bytes += int64(len(m.Key)+len(m.Value)) + MessageOverhead
					for k, v := range m.Headers {
						bytes += int64(len(k) + len(v))
					}
				}
				if int64(len(msgs)) != high-low {
					t.Fatalf("seed %d step %d %s/%d: fetched %d of [%d,%d)", seed, step, tn, pi, len(msgs), low, high)
				}
				if got := retainedBytes(t, b, tn, pi); got != bytes {
					t.Fatalf("seed %d step %d %s/%d: broker counts %d bytes, messages hold %d", seed, step, tn, pi, got, bytes)
				}
				if limit := bound + int64(b.segmentCap)*maxMsg; bytes > limit {
					t.Fatalf("seed %d step %d %s/%d: %d bytes retained, bound %d + one segment = %d",
						seed, step, tn, pi, bytes, bound, limit)
				}
			}
			var produced int64
			for _, mp := range model[tn] {
				produced += mp.produced
			}
			if dropped := int64(b.droppedVec.With(tn).Value()); dropped+retained != produced {
				t.Fatalf("seed %d step %d %s: dropped %d + retained %d != produced %d",
					seed, step, tn, dropped, retained, produced)
			}
			for _, g := range groups {
				want := skipped[[2]string{g, tn}]
				if got := int64(b.skippedVec.With(g, tn).Value()); got != want {
					t.Fatalf("seed %d step %d: group %s lost %d offsets of %s, counted %d", seed, step, g, want, tn, got)
				}
			}
		}
		if truncated != 0 {
			t.Fatalf("seed %d step %d: TruncateBefore's count is off by %d", seed, step, truncated)
		}
	}
	for _, tn := range names {
		dropped += int64(b.droppedVec.With(tn).Value())
	}
	for _, n := range skipped {
		lost += n
	}
	return dropped, lost
}

func TestPropertyRetention(t *testing.T) {
	var dropped, lost int64
	for seed := int64(1); seed <= 40; seed++ {
		d, l := retentionSchedule(t, seed)
		dropped += d
		lost += l
	}
	// The schedules must reach the cases they check.
	if dropped == 0 || lost == 0 {
		t.Fatalf("schedules dropped %d messages and charged %d skipped offsets", dropped, lost)
	}
}

// The byte bound is enforced as the log grows, without any caller
// running retention: whole segments go from the head, and a fetch from
// offset 0 starts at the first one kept.
func TestByteBoundTrimsOnAppend(t *testing.T) {
	b := NewBroker()
	b.segmentCap = 10
	b.retentionBytes = 25 * (8 + MessageOverhead)
	newTopic(t, b, "t", 1)
	for i := 0; i < 100; i++ {
		if _, _, err := b.Produce("t", nil, []byte(fmt.Sprintf("m%07d", i)), time.Unix(int64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	// 100 messages in ten segments of ten; at the last roll (offset 90)
	// the head segments went while more than 25 messages were held.
	low, high, _ := b.Watermarks("t", 0)
	if low != 70 || high != 100 {
		t.Fatalf("watermarks [%d,%d), want [70,100)", low, high)
	}
	msgs, err := b.Fetch("t", 0, 0, 5)
	if err != nil || len(msgs) != 5 || msgs[0].Offset != 70 || string(msgs[0].Value) != "m0000070" {
		t.Fatalf("fetch from 0: %v %v", msgs, err)
	}
	if got := b.droppedVec.With("t").Value(); got != 70 {
		t.Fatalf("dropped counter %v, want 70", got)
	}
	if got := retainedBytes(t, b, "t", 0); got != 30*(8+MessageOverhead) {
		t.Fatalf("retained bytes %d, want those of 30 messages", got)
	}
	if st := b.Stats(); st.Messages != 100 {
		t.Fatalf("stats %+v", st)
	}
}

// Two manual-commit consumers read one topic under a small byte bound.
// One polls and commits as messages arrive: retention drops only what it
// has read and never charges its group. The other stalls after its first
// commit: it loses exactly the offsets the broker charges its group, and
// when it polls again it drains the rest, from the low watermark on.
func TestStalledConsumerLosesCountedOffsets(t *testing.T) {
	b := NewBroker()
	b.segmentCap = 10
	const size = 8 + MessageOverhead // every value below is 8 bytes
	b.retentionBytes = 25 * size
	newTopic(t, b, "t", 1)
	produce := func(from, n int) {
		for i := from; i < from+n; i++ {
			if _, _, err := b.Produce("t", nil, []byte(fmt.Sprintf("m%07d", i)), time.Unix(int64(i), 0)); err != nil {
				t.Fatal(err)
			}
		}
	}
	poll := func(c *Consumer) []Message {
		t.Helper()
		msgs, err := c.Poll(1000, 0)
		if err != nil {
			t.Fatal(err)
		}
		c.CommitPolled()
		return msgs
	}
	live := NewManualConsumer(b, "live", "m", "t")
	stalled := NewManualConsumer(b, "stalled", "m", "t")
	defer live.Close()
	defer stalled.Close()

	const first, total = 15, 200
	produce(0, first)
	var seen []Message // what the live consumer read, in order
	seen = append(seen, poll(live)...)
	if n := len(poll(stalled)); n != first {
		t.Fatalf("stalled consumer read %d before the stall, want %d", n, first)
	}
	for i := first; i < total; i += 5 {
		produce(i, 5)
		seen = append(seen, poll(live)...)
		if got, limit := retainedBytes(t, b, "t", 0), b.retentionBytes+int64(b.segmentCap)*size; got > limit {
			t.Fatalf("after offset %d: %d bytes retained, bound + one segment = %d", i+4, got, limit)
		}
	}
	for i, m := range seen {
		if m.Offset != int64(i) {
			t.Fatalf("live consumer read offset %d at %d", m.Offset, i)
		}
	}
	if len(seen) != total {
		t.Fatalf("live consumer read %d of %d", len(seen), total)
	}

	// The last roll (offset 190) left [170, 200).
	low, high, _ := b.Watermarks("t", 0)
	if low != 170 || high != total {
		t.Fatalf("watermarks [%d,%d), want [170,%d)", low, high, total)
	}
	if got := b.skippedVec.With("live", "t").Value(); got != 0 {
		t.Fatalf("a consumer that keeps up was charged %v skipped offsets", got)
	}
	lost := low - first
	if got := b.skippedVec.With("stalled", "t").Value(); got != float64(lost) {
		t.Fatalf("the stalled group lost %d offsets, was charged %v", lost, got)
	}

	rest := poll(stalled)
	if int64(len(rest)) != high-low {
		t.Fatalf("stalled consumer drained %d, want %d", len(rest), high-low)
	}
	for i, m := range rest {
		if m.Offset != low+int64(i) || string(m.Value) != fmt.Sprintf("m%07d", low+int64(i)) {
			t.Fatalf("drained offset %d (%q) at %d", m.Offset, m.Value, i)
		}
	}
	for key, lag := range b.GroupLag("stalled") {
		if lag != 0 {
			t.Fatalf("lag %d on %s after the drain", lag, key)
		}
	}
}

// DLQ topics live on the same broker and follow the same bounds.
func TestDLQFollowsRetention(t *testing.T) {
	b := NewBroker()
	b.segmentCap = 4
	b.retentionBytes = 1
	newTopic(t, b, "t", 1)
	for i := 0; i < 12; i++ {
		m := Message{Topic: "t", Value: []byte("bad"), Timestamp: time.Unix(int64(i), 0)}
		if _, _, err := Quarantine(b, m, fmt.Errorf("poison %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	low, high, _ := b.Watermarks(DLQTopic("t"), 0)
	if low != 8 || high != 12 {
		t.Fatalf("dlq watermarks [%d,%d), want [8,12)", low, high)
	}
	if n := b.TruncateBefore(time.Unix(12, 0).Add(-DefaultRetentionAge)); n != 0 {
		t.Fatalf("the default age bound dropped %d records seconds old", n)
	}
	if n := b.TruncateBefore(time.Unix(11, 0)); n != 3 {
		t.Fatalf("age bound dropped %d, want 3", n)
	}
}

// A keyed produce into a segment with spare capacity allocates nothing:
// the partition's counter children are cached, the key hash is inline
// and the produced count is an atomic.
func TestProduceAllocs(t *testing.T) {
	b := NewBroker()
	newTopic(t, b, "t", 4)
	m := Message{Topic: "t", Key: []byte("x1203c1b0"), Value: []byte(`{"Severity":"Warning"}`),
		Timestamp: time.Unix(1646272077, 0)}
	if _, _, err := b.ProduceMessage(m); err != nil { // opens the segment
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, _, err := b.ProduceMessage(m); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ProduceMessage: %v allocs/op, want 0", n)
	}
}

// The partition a key lands on is the FNV-1a hash of the key modulo the
// partition count, as it was with hash/fnv's hasher.
func TestKeyPartitionIsFNV1a(t *testing.T) {
	b := NewBroker()
	newTopic(t, b, "t", 7)
	for _, key := range []string{"a", "x1203c1b0", "nid000001", "x3000c0s7b0n1", "\xff\x00"} {
		h := fnv.New32a()
		h.Write([]byte(key))
		want := int(h.Sum32()) % 7
		if pi, _, err := b.Produce("t", []byte(key), nil, time.Unix(1, 0)); err != nil || pi != want {
			t.Fatalf("key %q on partition %d (%v), want %d", key, pi, err, want)
		}
	}
}
