// Package kafka implements an in-memory message broker with the Kafka
// semantics the paper's pipeline relies on: named topics split into
// partitions, ordered append-only logs per partition, offset-based fetch,
// consumer groups with committed offsets and rebalancing, and byte- and
// age-bounded retention over segmented partition logs. In the paper,
// "the HMS collector pushes data to Kafka, where Kafka stores data in
// different topics by categories and serves them to possible consumers".
package kafka

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shastamon/internal/labels"
	"shastamon/internal/obs"
	"shastamon/internal/promtext"
)

// Message is one record in a partition log.
type Message struct {
	Topic     string
	Partition int
	Offset    int64
	Key       []byte
	Value     []byte
	Timestamp time.Time
	// Headers carry per-message metadata end to end — the pipeline uses
	// them to propagate obs trace IDs alongside the payload.
	Headers map[string]string
}

// Errors returned by broker operations.
var (
	ErrUnknownTopic     = errors.New("kafka: unknown topic")
	ErrUnknownPartition = errors.New("kafka: unknown partition")
	ErrTopicExists      = errors.New("kafka: topic already exists")
	ErrOffsetOutOfRange = errors.New("kafka: offset out of range")
)

// Kafka's two retention bounds, applied to every partition, DLQ topics
// included.
//
// DefaultRetentionBytes is retention.bytes: what one partition holds,
// counted by messageBytes. The broker enforces it as the log grows: an
// in-memory broker has no disk to spill to, so without it every message
// produced inside the age bound stays on the heap. A trim drops whole
// segments, unread tails included, so the bound must exceed one segment
// plus what consumers leave unread between polls; 8 MiB is far more
// than the forwarder ever leaves unread in a tick.
//
// DefaultRetentionAge is retention.ms, HPE's policy in the paper
// ("keeping event information for no more than two months"). It is
// enforced by TruncateBefore, whose caller owns the clock (the
// pipeline's tick runs on simulated time in experiments).
const (
	DefaultRetentionBytes = 8 << 20
	DefaultRetentionAge   = 60 * 24 * time.Hour
)

// MessageOverhead is what a message costs the broker beyond its key,
// value and header bytes: its slot in a segment (the Message struct,
// 112 B on 64-bit) plus allocator rounding. Retained bytes count it, so
// the byte bound tracks resident memory and not only payload.
const MessageOverhead = 128

// SegmentMessages is the number of messages per log segment. Segments
// are allocated whole, so an append into one with spare capacity
// allocates nothing, and retention drops whole segments: a partition
// holds at most its byte bound plus one segment.
const SegmentMessages = 1024

func messageBytes(m *Message) int64 {
	n := int64(len(m.Key)+len(m.Value)) + MessageOverhead
	for k, v := range m.Headers {
		n += int64(len(k) + len(v))
	}
	return n
}

// segment is a run of consecutive offsets of one partition's log.
type segment struct {
	start  int64     // offset of msgs[0]
	msgs   []Message // allocated with the segment capacity, never grown
	bytes  int64
	newest time.Time // latest timestamp in msgs
}

// partition is one ordered log, held as a list of segments oldest
// first; the last one takes appends. Lock order: p.mu may be held while
// taking the broker's mu (to charge a trim to the consumer groups),
// never the other way round.
type partition struct {
	b     *Broker
	topic string
	id    int

	produced, fetched *obs.Counter // this partition's counter children

	mu      sync.Mutex
	segs    []segment
	high    int64 // next offset to be written
	bytes   int64 // retained, counted by messageBytes
	waiters []chan struct{}
}

// low returns the oldest retained offset (high when nothing is).
func (p *partition) low() int64 {
	if len(p.segs) == 0 {
		return p.high
	}
	return p.segs[0].start
}

func (p *partition) append(m Message) int64 {
	p.mu.Lock()
	if n := len(p.segs); n == 0 || len(p.segs[n-1].msgs) == cap(p.segs[n-1].msgs) {
		p.segs = append(p.segs, segment{start: p.high, msgs: make([]Message, 0, p.b.segmentCap)})
		p.trim(time.Time{}, p.b.retentionBytes)
	}
	s := &p.segs[len(p.segs)-1]
	m.Offset = p.high
	s.msgs = append(s.msgs, m)
	size := messageBytes(&m)
	s.bytes += size
	p.bytes += size
	if m.Timestamp.After(s.newest) {
		s.newest = m.Timestamp
	}
	p.high++
	ws := p.waiters
	p.waiters = nil
	p.mu.Unlock()
	for _, w := range ws {
		close(w)
	}
	return m.Offset
}

// trim is the one retention routine; p.mu is held. It drops whole
// segments from the head while the log holds more than maxBytes or
// while a segment's newest message is older than cutoff, then the
// messages older than cutoff at the head of the first segment kept. A
// zero cutoff or a non-positive maxBytes leaves that bound unchecked.
// The byte bound is checked only at a roll, when the segment taking
// appends is still empty, so it never drops that one. Dropping is a
// reslice, not a copy of the retained tail; the dropped slots are
// cleared so the payloads can be collected. The dropped range is
// charged to the topic and to every group that had not committed past
// it. trim returns how many messages it dropped.
func (p *partition) trim(cutoff time.Time, maxBytes int64) int {
	lo := p.low()
	n := 0
	for n < len(p.segs) {
		s := &p.segs[n]
		overBytes := maxBytes > 0 && p.bytes > maxBytes
		expired := !cutoff.IsZero() && s.newest.Before(cutoff)
		if !overBytes && !expired {
			break
		}
		p.bytes -= s.bytes
		n++
	}
	clear(p.segs[:n])
	p.segs = p.segs[n:]
	if len(p.segs) > 0 && !cutoff.IsZero() {
		s := &p.segs[0]
		i := 0
		for ; i < len(s.msgs) && s.msgs[i].Timestamp.Before(cutoff); i++ {
			size := messageBytes(&s.msgs[i])
			s.bytes -= size
			p.bytes -= size
		}
		clear(s.msgs[:i])
		s.msgs = s.msgs[i:]
		s.start += int64(i)
	}
	hi := p.low()
	if hi > lo {
		p.b.chargeDrop(p.topic, p.id, lo, hi)
	}
	return int(hi - lo)
}

// fetch returns up to max messages from the first retained offset >=
// offset. An offset below the low watermark is clamped to it under the
// partition lock — those messages are gone whatever the reader does, and
// deciding that here leaves no window for a truncation to race a
// reader's own watermark check. Messages carry their real offsets, so
// the reader's next position follows from what it was handed. Only an
// offset beyond the high watermark is an error.
func (p *partition) fetch(offset int64, limit int) ([]Message, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if offset > p.high {
		return nil, fmt.Errorf("%w: %d beyond high watermark %d", ErrOffsetOutOfRange, offset, p.high)
	}
	offset = max(offset, p.low())
	if offset == p.high || limit <= 0 {
		return nil, nil
	}
	// Readers are mostly near the head: search from the newest segment.
	k := len(p.segs) - 1
	for p.segs[k].start > offset {
		k--
	}
	out := make([]Message, 0, min(int64(limit), p.high-offset))
	for ; k < len(p.segs) && len(out) < limit; k++ {
		s := &p.segs[k]
		from := offset - s.start
		to := min(int64(len(s.msgs)), from+int64(limit-len(out)))
		out = append(out, s.msgs[from:to]...)
		offset = s.start + to
	}
	return out, nil
}

// waitCh returns a channel closed at next append when the reader is at the
// head; nil if data is already available. Like fetch it reads an offset
// below the low watermark as the low watermark, so a reader whose
// position was truncated away still blocks on an empty partition.
func (p *partition) waitCh(offset int64) chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	if max(offset, p.low()) < p.high {
		return nil
	}
	w := make(chan struct{})
	p.waiters = append(p.waiters, w)
	return w
}

// dropWaiter removes a waiter that gave up (FetchWait timeout); without
// this, every timed-out poll would leave its channel in the slice until
// the next append — a leak under repeated empty polls.
func (p *partition) dropWaiter(w chan struct{}) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, x := range p.waiters {
		if x == w {
			p.waiters = append(p.waiters[:i], p.waiters[i+1:]...)
			return
		}
	}
}

// waiterCount reports pending waiters (test hook for the leak regression).
func (p *partition) waiterCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.waiters)
}

type topic struct {
	name       string
	partitions []*partition
}

type groupState struct {
	members []string         // sorted member IDs
	commits map[string]int64 // "topic/partition" -> next offset to read
	gen     int
}

// Broker is an in-memory Kafka-like broker, safe for concurrent use.
type Broker struct {
	mu     sync.RWMutex
	topics map[string]*topic
	groups map[string]*groupState

	produced atomic.Int64

	// produceHook, when set, intercepts every ProduceMessage with the
	// topic name; a non-nil error aborts the append. The chaos injector
	// arms it to simulate broker-side produce failures.
	produceHook atomic.Pointer[func(topic string) error]

	// Messages per segment and bytes per partition (DefaultRetentionBytes);
	// tests shrink both.
	segmentCap     int
	retentionBytes int64

	reg         *obs.Registry
	producedVec *obs.CounterVec
	fetchedVec  *obs.CounterVec
	droppedVec  *obs.CounterVec
	skippedVec  *obs.CounterVec
}

// NewBroker returns an empty broker with the default byte bound.
func NewBroker() *Broker {
	b := &Broker{topics: map[string]*topic{}, groups: map[string]*groupState{}, reg: obs.NewRegistry(),
		segmentCap: SegmentMessages, retentionBytes: DefaultRetentionBytes}
	b.producedVec = b.reg.CounterVec(obs.Namespace+"kafka_produced_total",
		"Messages appended per topic/partition.", "topic", "partition")
	b.fetchedVec = b.reg.CounterVec(obs.Namespace+"kafka_fetched_total",
		"Messages served to consumers per topic/partition.", "topic", "partition")
	b.droppedVec = b.reg.CounterVec(obs.Namespace+"kafka_retention_dropped_total",
		"Messages dropped by retention (byte or age bound) per topic.", "topic")
	b.skippedVec = b.reg.CounterVec(obs.Namespace+"kafka_retention_skipped_total",
		"Offsets retention dropped before the group had committed past them.", "group", "topic")
	b.reg.GaugeFunc(obs.Namespace+"kafka_topics", "Topics on the broker.", func() float64 {
		b.mu.RLock()
		defer b.mu.RUnlock()
		return float64(len(b.topics))
	})
	b.reg.Collect(b.lagFamilies)
	return b
}

// Metrics exposes the broker's self-monitoring registry.
func (b *Broker) Metrics() *obs.Registry { return b.reg }

// SetProduceHook installs (or, with nil, removes) the produce fault hook.
func (b *Broker) SetProduceHook(fn func(topic string) error) {
	if fn == nil {
		b.produceHook.Store(nil)
		return
	}
	b.produceHook.Store(&fn)
}

// chargeDrop counts the offsets [lo, hi) that retention dropped from a
// partition: once against the topic, and against every group whose
// commit on the partition had not passed them — for a stalled group,
// exactly the offsets it will never read. Groups that never committed
// on the partition are not charged. The partition's lock is held.
func (b *Broker) chargeDrop(topicName string, part int, lo, hi int64) {
	b.droppedVec.With(topicName).Add(float64(hi - lo))
	key := commitKey(topicName, part)
	b.mu.RLock()
	defer b.mu.RUnlock()
	for name, g := range b.groups {
		if next, ok := g.commits[key]; ok && next < hi {
			b.skippedVec.With(name, topicName).Add(float64(hi - max(next, lo)))
		}
	}
}

// lagFamilies renders consumer-group lag per topic/partition at gather
// time — lag is derived state (watermark minus commit), so it is computed
// rather than counted.
func (b *Broker) lagFamilies() []promtext.Family {
	f := promtext.Family{Name: obs.Namespace + "kafka_group_lag",
		Help: "Unconsumed messages per group/topic/partition.", Type: "gauge"}
	for _, group := range b.Groups() {
		lags := b.GroupLag(group)
		keys := make([]string, 0, len(lags))
		for k := range lags {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, key := range keys {
			topicName, part, ok := splitCommitKey(key)
			if !ok {
				continue
			}
			f.Metrics = append(f.Metrics, promtext.Metric{
				Name:   f.Name,
				Labels: labels.FromStrings("group", group, "topic", topicName, "partition", strconv.Itoa(part)),
				Value:  float64(lags[key]),
			})
		}
	}
	return []promtext.Family{f}
}

// CreateTopic creates a topic with n partitions (n >= 1).
func (b *Broker) CreateTopic(name string, partitions int) error {
	if partitions < 1 {
		return fmt.Errorf("kafka: topic %q needs at least one partition", name)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.topics[name]; ok {
		return fmt.Errorf("%w: %q", ErrTopicExists, name)
	}
	t := &topic{name: name, partitions: make([]*partition, partitions)}
	for i := range t.partitions {
		id := strconv.Itoa(i)
		t.partitions[i] = &partition{b: b, topic: name, id: i,
			produced: b.producedVec.With(name, id), fetched: b.fetchedVec.With(name, id)}
	}
	b.droppedVec.With(name)
	b.topics[name] = t
	return nil
}

// Topics lists topic names.
func (b *Broker) Topics() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]string, 0, len(b.topics))
	for name := range b.topics {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Partitions returns the partition count of a topic.
func (b *Broker) Partitions(topicName string) (int, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	t, ok := b.topics[topicName]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownTopic, topicName)
	}
	return len(t.partitions), nil
}

func (b *Broker) topic(name string) (*topic, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	t, ok := b.topics[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTopic, name)
	}
	return t, nil
}

// Produce appends a message; the partition is chosen by key hash (or 0 for
// a keyless message on a single-partition topic, round-robin otherwise via
// the produced counter). It returns partition and offset.
func (b *Broker) Produce(topicName string, key, value []byte, ts time.Time) (int, int64, error) {
	return b.ProduceMessage(Message{Topic: topicName, Key: key, Value: value, Timestamp: ts})
}

// ProduceMessage appends a message with all its metadata (including
// Headers); Topic, Key, Value and Timestamp are taken from m, while
// Partition and Offset are assigned by the broker and returned.
func (b *Broker) ProduceMessage(m Message) (int, int64, error) {
	t, err := b.topic(m.Topic)
	if err != nil {
		return 0, 0, err
	}
	if hook := b.produceHook.Load(); hook != nil {
		if err := (*hook)(m.Topic); err != nil {
			return 0, 0, fmt.Errorf("kafka: produce %s: %w", m.Topic, err)
		}
	}
	var pi int
	if len(m.Key) > 0 {
		// FNV-1a, inline: hash/fnv's hasher is an allocation per message.
		h := uint32(2166136261)
		for _, c := range m.Key {
			h = (h ^ uint32(c)) * 16777619
		}
		pi = int(h % uint32(len(t.partitions)))
	} else {
		pi = int(b.produced.Load() % int64(len(t.partitions)))
	}
	if m.Timestamp.IsZero() {
		m.Timestamp = time.Now()
	}
	m.Partition = pi
	p := t.partitions[pi]
	off := p.append(m)
	b.produced.Add(1)
	p.produced.Inc()
	return pi, off, nil
}

// Fetch reads up to max messages from a partition starting at offset, or
// at the low watermark when retention has already truncated past offset
// (check Message.Offset, not offset+i). An empty result means the reader
// is at the head; an offset beyond the head is ErrOffsetOutOfRange.
func (b *Broker) Fetch(topicName string, part int, offset int64, max int) ([]Message, error) {
	t, err := b.topic(topicName)
	if err != nil {
		return nil, err
	}
	if part < 0 || part >= len(t.partitions) {
		return nil, fmt.Errorf("%w: %s/%d", ErrUnknownPartition, topicName, part)
	}
	p := t.partitions[part]
	msgs, err := p.fetch(offset, max)
	p.fetched.Add(float64(len(msgs)))
	return msgs, err
}

// FetchWait is Fetch that blocks up to timeout for new data when the
// reader is at the head.
func (b *Broker) FetchWait(topicName string, part int, offset int64, max int, timeout time.Duration) ([]Message, error) {
	t, err := b.topic(topicName)
	if err != nil {
		return nil, err
	}
	if part < 0 || part >= len(t.partitions) {
		return nil, fmt.Errorf("%w: %s/%d", ErrUnknownPartition, topicName, part)
	}
	p := t.partitions[part]
	count := func(msgs []Message, err error) ([]Message, error) {
		p.fetched.Add(float64(len(msgs)))
		return msgs, err
	}
	msgs, err := p.fetch(offset, max)
	if err != nil || len(msgs) > 0 {
		return count(msgs, err)
	}
	w := p.waitCh(offset)
	if w == nil {
		return count(p.fetch(offset, max))
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-w:
		return count(p.fetch(offset, max))
	case <-timer.C:
		p.dropWaiter(w)
		return nil, nil
	}
}

// Watermarks returns the low and high offsets of a partition (low = oldest
// retained, high = next offset to be written).
func (b *Broker) Watermarks(topicName string, part int) (low, high int64, err error) {
	t, err := b.topic(topicName)
	if err != nil {
		return 0, 0, err
	}
	if part < 0 || part >= len(t.partitions) {
		return 0, 0, fmt.Errorf("%w: %s/%d", ErrUnknownPartition, topicName, part)
	}
	p := t.partitions[part]
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.low(), p.high, nil
}

// TruncateBefore drops messages older than cutoff across all topics and
// returns the number dropped. It is the age half of retention (HPE "has
// a policy of keeping event information for no more than two months"):
// pass now minus DefaultRetentionAge. Whole segments go first, then the
// head of the first one kept, so a partition stops at its first message
// not older than cutoff.
func (b *Broker) TruncateBefore(cutoff time.Time) int {
	b.mu.RLock()
	var parts []*partition
	for _, t := range b.topics {
		parts = append(parts, t.partitions...)
	}
	b.mu.RUnlock()
	dropped := 0
	for _, p := range parts {
		p.mu.Lock()
		dropped += p.trim(cutoff, 0)
		p.mu.Unlock()
	}
	return dropped
}

// ---- consumer groups ----

func commitKey(topicName string, part int) string { return fmt.Sprintf("%s/%d", topicName, part) }

// splitCommitKey inverts commitKey ("topic/partition", splitting on the
// last '/' since topic names may contain slashes).
func splitCommitKey(key string) (topicName string, part int, ok bool) {
	idx := strings.LastIndexByte(key, '/')
	if idx <= 0 {
		return "", 0, false
	}
	n, err := strconv.Atoi(key[idx+1:])
	if err != nil {
		return "", 0, false
	}
	return key[:idx], n, true
}

// JoinGroup registers a member in a consumer group and returns the group
// generation. Assignments must be refreshed after every join/leave.
func (b *Broker) JoinGroup(group, member string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	g := b.groups[group]
	if g == nil {
		g = &groupState{commits: map[string]int64{}}
		b.groups[group] = g
	}
	for _, m := range g.members {
		if m == member {
			return g.gen
		}
	}
	g.members = append(g.members, member)
	sort.Strings(g.members)
	g.gen++
	return g.gen
}

// LeaveGroup removes a member, triggering a rebalance.
func (b *Broker) LeaveGroup(group, member string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	g := b.groups[group]
	if g == nil {
		return
	}
	for i, m := range g.members {
		if m == member {
			g.members = append(g.members[:i], g.members[i+1:]...)
			g.gen++
			return
		}
	}
}

// Assignment returns the partitions of a topic assigned to the member
// under round-robin distribution over the sorted member list.
func (b *Broker) Assignment(group, member, topicName string) ([]int, error) {
	parts, err := b.Partitions(topicName)
	if err != nil {
		return nil, err
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	g := b.groups[group]
	if g == nil {
		return nil, fmt.Errorf("kafka: unknown group %q", group)
	}
	idx := -1
	for i, m := range g.members {
		if m == member {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("kafka: member %q not in group %q", member, group)
	}
	var out []int
	for p := 0; p < parts; p++ {
		if p%len(g.members) == idx {
			out = append(out, p)
		}
	}
	return out, nil
}

// Commit stores the next offset to read for a group/topic/partition.
func (b *Broker) Commit(group, topicName string, part int, next int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	g := b.groups[group]
	if g == nil {
		g = &groupState{commits: map[string]int64{}}
		b.groups[group] = g
	}
	key := commitKey(topicName, part)
	if _, ok := g.commits[key]; !ok {
		// Export the loss counter from the first commit on, so the first
		// retention skip shows as an increase and not as a new series.
		b.skippedVec.With(group, topicName)
	}
	g.commits[key] = next
}

// Committed returns the committed next offset, or 0 if none.
func (b *Broker) Committed(group, topicName string, part int) int64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	g := b.groups[group]
	if g == nil {
		return 0
	}
	return g.commits[commitKey(topicName, part)]
}

// Groups lists consumer group names.
func (b *Broker) Groups() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]string, 0, len(b.groups))
	for g := range b.groups {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}

// GroupLag returns, per "topic/partition", how many messages the group
// has not yet consumed (high watermark minus committed offset). Topics
// the group never committed to are omitted.
func (b *Broker) GroupLag(group string) map[string]int64 {
	b.mu.RLock()
	g := b.groups[group]
	if g == nil {
		b.mu.RUnlock()
		return nil
	}
	commits := make(map[string]int64, len(g.commits))
	for k, v := range g.commits {
		commits[k] = v
	}
	b.mu.RUnlock()
	out := make(map[string]int64, len(commits))
	for key, next := range commits {
		topicName, part, ok := splitCommitKey(key)
		if !ok {
			continue
		}
		_, high, err := b.Watermarks(topicName, part)
		if err != nil {
			continue
		}
		out[key] = max(high-next, 0)
	}
	return out
}

// Stats reports broker-wide counters.
type Stats struct {
	Topics   int
	Messages int64
}

// Stats returns a snapshot.
func (b *Broker) Stats() Stats {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return Stats{Topics: len(b.topics), Messages: b.produced.Load()}
}
