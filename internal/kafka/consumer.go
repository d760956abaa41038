package kafka

import (
	"sync"
	"time"
)

// Consumer is a convenience wrapper implementing the subscribe/poll/commit
// loop used by the telemetry API server and the K3s-pod-style clients.
//
// Two delivery modes:
//
//   - auto-commit (NewConsumer): offsets are committed as messages are
//     returned — at-most-once, fine for high-rate sensor telemetry where a
//     lost sample is cheaper than a duplicate.
//   - manual commit (NewManualConsumer): Poll advances only the in-memory
//     position; nothing is committed until CommitPolled. A consumer that
//     dies mid-batch re-delivers from the last commit — at-least-once, what
//     the event topic needs (a dropped leak event is a missed incident).
type Consumer struct {
	b          *Broker
	group      string
	member     string
	topics     []string
	autoCommit bool

	mu        sync.Mutex
	closed    bool
	positions map[string]int64 // "topic/partition" -> next offset to poll
}

// NewConsumer joins the group and subscribes to the topics in auto-commit
// mode.
func NewConsumer(b *Broker, group, member string, topics ...string) *Consumer {
	b.JoinGroup(group, member)
	return &Consumer{b: b, group: group, member: member, topics: topics,
		autoCommit: true, positions: map[string]int64{}}
}

// NewManualConsumer joins the group in manual-commit mode: the caller owns
// the commit point via CommitPolled.
func NewManualConsumer(b *Broker, group, member string, topics ...string) *Consumer {
	c := NewConsumer(b, group, member, topics...)
	c.autoCommit = false
	return c
}

// Poll fetches up to max messages across the member's assigned partitions,
// waiting up to timeout if none are immediately available. In auto-commit
// mode offsets are committed as messages are returned; in manual mode the
// in-memory position advances and CommitPolled persists it.
//
// A position orphaned by retention heals itself: the broker's fetch
// starts at the low watermark when retention has moved it past the
// read position (the broker counts those offsets against the group),
// and the position then advances from the offsets of the messages
// actually returned — a monitoring consumer keeps draining what
// remains.
func (c *Consumer) Poll(max int, timeout time.Duration) ([]Message, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, nil
	}
	c.mu.Unlock()

	var out []Message
	grab := func(wait time.Duration) error {
		for _, topic := range c.topics {
			parts, err := c.b.Assignment(c.group, c.member, topic)
			if err != nil {
				return err
			}
			for _, p := range parts {
				if len(out) >= max {
					return nil
				}
				off := c.position(topic, p)
				var msgs []Message
				if wait > 0 {
					msgs, err = c.b.FetchWait(topic, p, off, max-len(out), wait)
				} else {
					msgs, err = c.b.Fetch(topic, p, off, max-len(out))
				}
				if err != nil {
					return err
				}
				if len(msgs) > 0 {
					next := msgs[len(msgs)-1].Offset + 1
					c.advance(topic, p, next)
					if c.autoCommit {
						c.b.Commit(c.group, topic, p, next)
					}
					out = append(out, msgs...)
				}
			}
		}
		return nil
	}
	if err := grab(0); err != nil {
		return nil, err
	}
	if len(out) == 0 && timeout > 0 {
		// One blocking pass distributed over the first assigned partition.
		if err := grab(timeout); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// position returns the next offset to poll: the in-memory position when
// one exists, else the group's committed offset.
func (c *Consumer) position(topic string, part int) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if off, ok := c.positions[commitKey(topic, part)]; ok {
		return off
	}
	return c.b.Committed(c.group, topic, part)
}

func (c *Consumer) advance(topic string, part int, next int64) {
	c.mu.Lock()
	c.positions[commitKey(topic, part)] = next
	c.mu.Unlock()
}

// CommitPolled persists every polled-but-uncommitted position to the
// broker. Call it after the polled batch is durably handed off; a crash
// before the call re-delivers the batch to the next group member.
func (c *Consumer) CommitPolled() {
	c.mu.Lock()
	positions := make(map[string]int64, len(c.positions))
	for k, v := range c.positions {
		positions[k] = v
	}
	c.mu.Unlock()
	for key, next := range positions {
		topic, part, ok := splitCommitKey(key)
		if !ok {
			continue
		}
		c.b.Commit(c.group, topic, part, next)
	}
}

// AutoCommit reports the delivery mode.
func (c *Consumer) AutoCommit() bool { return c.autoCommit }

// Close leaves the consumer group. Uncommitted manual-mode positions are
// dropped — deliberately, so the next member re-reads from the commit.
func (c *Consumer) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	c.b.LeaveGroup(c.group, c.member)
}
