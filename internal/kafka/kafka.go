// Package kafka implements an in-memory message broker with the Kafka
// semantics the paper's pipeline relies on: named topics split into
// partitions, ordered append-only logs per partition, offset-based fetch,
// consumer groups with committed offsets and rebalancing, and time-based
// retention. In the paper, "the HMS collector pushes data to Kafka, where
// Kafka stores data in different topics by categories and serves them to
// possible consumers".
package kafka

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"
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

type partition struct {
	mu      sync.Mutex
	base    int64 // offset of msgs[0] (after retention truncation)
	msgs    []Message
	waiters []chan struct{}
}

func (p *partition) append(m Message) int64 {
	p.mu.Lock()
	m.Offset = p.base + int64(len(p.msgs))
	p.msgs = append(p.msgs, m)
	ws := p.waiters
	p.waiters = nil
	p.mu.Unlock()
	for _, w := range ws {
		close(w)
	}
	return m.Offset
}

// fetch returns up to max messages from the first retained offset >=
// offset. An offset below the low watermark is clamped to it under the
// partition lock — those messages are gone whatever the reader does, and
// deciding that here leaves no window for a truncation to race a
// reader's own watermark check. Messages carry their real offsets, so
// the reader's next position follows from what it was handed. Only an
// offset beyond the high watermark is an error.
func (p *partition) fetch(offset int64, max int) ([]Message, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	high := p.base + int64(len(p.msgs))
	if offset > high {
		return nil, fmt.Errorf("%w: %d beyond high watermark %d", ErrOffsetOutOfRange, offset, high)
	}
	if offset < p.base {
		offset = p.base
	}
	if offset == high {
		return nil, nil
	}
	start := offset - p.base
	end := start + int64(max)
	if end > int64(len(p.msgs)) {
		end = int64(len(p.msgs))
	}
	out := make([]Message, end-start)
	copy(out, p.msgs[start:end])
	return out, nil
}

// waitCh returns a channel closed at next append when the reader is at the
// head; nil if data is already available. Like fetch it reads an offset
// below the low watermark as the low watermark, so a reader whose
// position was truncated away still blocks on an empty partition.
func (p *partition) waitCh(offset int64) chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	if max(offset, p.base) < p.base+int64(len(p.msgs)) {
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

	produced int64

	// produceHook, when set, intercepts every ProduceMessage with the
	// topic name; a non-nil error aborts the append. The chaos injector
	// arms it to simulate broker-side produce failures.
	produceHook func(topic string) error

	reg         *obs.Registry
	producedVec *obs.CounterVec
	fetchedVec  *obs.CounterVec
}

// NewBroker returns an empty broker.
func NewBroker() *Broker {
	b := &Broker{topics: map[string]*topic{}, groups: map[string]*groupState{}, reg: obs.NewRegistry()}
	b.producedVec = b.reg.CounterVec(obs.Namespace+"kafka_produced_total",
		"Messages appended per topic/partition.", "topic", "partition")
	b.fetchedVec = b.reg.CounterVec(obs.Namespace+"kafka_fetched_total",
		"Messages served to consumers per topic/partition.", "topic", "partition")
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
	b.mu.Lock()
	b.produceHook = fn
	b.mu.Unlock()
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
			idx := strings.LastIndexByte(key, '/')
			if idx <= 0 {
				continue
			}
			f.Metrics = append(f.Metrics, promtext.Metric{
				Name:   f.Name,
				Labels: labels.FromStrings("group", group, "topic", key[:idx], "partition", key[idx+1:]),
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
		t.partitions[i] = &partition{}
	}
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
	b.mu.RLock()
	hook := b.produceHook
	b.mu.RUnlock()
	if hook != nil {
		if err := hook(m.Topic); err != nil {
			return 0, 0, fmt.Errorf("kafka: produce %s: %w", m.Topic, err)
		}
	}
	var pi int
	if len(m.Key) > 0 {
		h := fnv.New32a()
		h.Write(m.Key)
		pi = int(h.Sum32()) % len(t.partitions)
	} else {
		b.mu.Lock()
		pi = int(b.produced) % len(t.partitions)
		b.mu.Unlock()
	}
	if m.Timestamp.IsZero() {
		m.Timestamp = time.Now()
	}
	m.Partition = pi
	off := t.partitions[pi].append(m)
	b.mu.Lock()
	b.produced++
	b.mu.Unlock()
	b.producedVec.With(m.Topic, strconv.Itoa(pi)).Inc()
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
	msgs, err := t.partitions[part].fetch(offset, max)
	if len(msgs) > 0 {
		b.fetchedVec.With(topicName, strconv.Itoa(part)).Add(float64(len(msgs)))
	}
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
		if len(msgs) > 0 {
			b.fetchedVec.With(topicName, strconv.Itoa(part)).Add(float64(len(msgs)))
		}
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
	return p.base, p.base + int64(len(p.msgs)), nil
}

// TruncateBefore drops messages older than cutoff across all topics
// (time-based retention; HPE "has a policy of keeping event information
// for no more than two months"). It returns the number dropped.
func (b *Broker) TruncateBefore(cutoff time.Time) int {
	b.mu.RLock()
	topics := make([]*topic, 0, len(b.topics))
	for _, t := range b.topics {
		topics = append(topics, t)
	}
	b.mu.RUnlock()
	dropped := 0
	for _, t := range topics {
		for _, p := range t.partitions {
			p.mu.Lock()
			i := 0
			for i < len(p.msgs) && p.msgs[i].Timestamp.Before(cutoff) {
				i++
			}
			if i > 0 {
				p.base += int64(i)
				p.msgs = append([]Message(nil), p.msgs[i:]...)
				dropped += i
			}
			p.mu.Unlock()
		}
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
	g.commits[commitKey(topicName, part)] = next
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
		// key is "topic/partition"; split on the last '/'.
		idx := len(key) - 1
		for idx >= 0 && key[idx] != '/' {
			idx--
		}
		if idx <= 0 {
			continue
		}
		topicName := key[:idx]
		var part int
		if _, err := fmt.Sscanf(key[idx+1:], "%d", &part); err != nil {
			continue
		}
		_, high, err := b.Watermarks(topicName, part)
		if err != nil {
			continue
		}
		lag := high - next
		if lag < 0 {
			lag = 0
		}
		out[key] = lag
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
	return Stats{Topics: len(b.topics), Messages: b.produced}
}
