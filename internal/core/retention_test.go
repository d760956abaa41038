package core

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"shastamon/internal/hms"
	"shastamon/internal/kafka"
	"shastamon/internal/obs"
	"shastamon/internal/syslogd"
)

// flapLine pads each syslog line to about a kilobyte, so a run fills a
// partition past the broker's default byte bound in a few thousand lines.
var flapLine = "eth0: NIC Link is Up 100 Gbps, flap %08d " + strings.Repeat("x", 960)

// syslogLoad ingests n syslog lines from one host at now through the
// pipeline's aggregator, so they all land on one partition of the
// topic, and returns that partition and the largest line as the broker
// counts it.
func syslogLoad(t *testing.T, p *Pipeline, from, n int, now time.Time) (part int, largest int64) {
	t.Helper()
	part = -1
	for i := from; i < from+n; i++ {
		m := syslogd.Message{
			Facility: 0, Severity: 6, Hostname: "nid000001", App: "kernel",
			Text:      fmt.Sprintf(flapLine, i),
			Timestamp: now.Add(time.Duration(i-from) * time.Millisecond),
		}
		if err := p.SyslogAggregator.Ingest(m); err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		largest = max(largest, int64(len(raw)+len(m.Hostname))+kafka.MessageOverhead)
	}
	parts, err := p.Broker.Partitions(hms.TopicSyslog)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < parts; i++ {
		if _, high, _ := p.Broker.Watermarks(hms.TopicSyslog, i); high > 0 {
			if part >= 0 {
				t.Fatalf("one host's lines on partitions %d and %d", part, i)
			}
			part = i
		}
	}
	return part, largest
}

// retainedBytes counts what a partition holds the way the broker's byte
// bound counts it: key, value and header bytes plus the per-message
// overhead.
func retainedBytes(t *testing.T, p *Pipeline, topic string, part int) int64 {
	t.Helper()
	low, high, err := p.Broker.Watermarks(topic, part)
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := p.Broker.Fetch(topic, part, low, int(high-low))
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, m := range msgs {
		n += int64(len(m.Key)+len(m.Value)) + kafka.MessageOverhead
		for k, v := range m.Headers {
			n += int64(len(k) + len(v))
		}
	}
	return n
}

func syslogStored(t *testing.T, p *Pipeline, to time.Time) int {
	t.Helper()
	streams, err := p.Warehouse.LogQL.QueryLogs(`{data_type="syslog"}`, 0, to.UnixNano())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, s := range streams {
		n += len(s.Entries)
	}
	return n
}

// A long run past the broker's default byte bound: the syslog partition
// stays at or below the bound plus one segment while the topic takes
// more than twice that. The forwarder keeps up, and the bound exceeds
// one segment plus a tick's worth of lines, so retention drops only what
// the forwarder has read: every line is in Loki and no group is charged
// a skipped offset.
func TestBrokerBytesStayUnderBound(t *testing.T) {
	p := newPipeline(t, Options{})
	base := time.Date(2022, 3, 3, 1, 0, 0, 0, time.UTC)
	const ticks, perTick = 20, 1000
	var part int
	var largest int64
	now := base
	for tick := 0; tick < ticks; tick++ {
		now = base.Add(time.Duration(tick) * 30 * time.Second)
		var l int64
		part, l = syslogLoad(t, p, tick*perTick, perTick, now)
		largest = max(largest, l)
		mustTick(t, p, now)
		if bytes, limit := retainedBytes(t, p, hms.TopicSyslog, part), kafka.DefaultRetentionBytes+kafka.SegmentMessages*largest; bytes > limit {
			t.Fatalf("tick %d: %s/%d holds %d bytes, bound + one segment = %d",
				tick, hms.TopicSyslog, part, bytes, limit)
		}
	}
	if low, _, _ := p.Broker.Watermarks(hms.TopicSyslog, part); low == 0 {
		t.Fatalf("%s/%d was never trimmed; the run is too short to test the bound", hms.TopicSyslog, part)
	}
	fams := p.Gather()
	if got := obs.Value(fams, "shastamon_kafka_retention_skipped_total"); got != 0 {
		t.Fatalf("a forwarder that keeps up was charged %v skipped offsets", got)
	}
	if got := obs.Value(fams, "shastamon_kafka_retention_dropped_total", "topic", hms.TopicSyslog); got == 0 {
		t.Fatal("no syslog message dropped")
	}
	if got := syslogStored(t, p, now.Add(time.Minute)); got != ticks*perTick {
		t.Fatalf("Loki holds %d of %d syslog lines", got, ticks*perTick)
	}
}

// A forwarder that stalls while the topic outgrows the default byte
// bound loses exactly the offsets the broker charges its group, drains
// the rest once it runs again, and the ShastamonKafkaRetentionSkipped
// meta-rule pages.
func TestStalledForwarderLosesCountedOffsets(t *testing.T) {
	p := newPipeline(t, Options{MetaAlerts: true})
	base := time.Date(2022, 3, 3, 1, 0, 0, 0, time.UTC)
	const first, stalled = 200, 12000
	part, _ := syslogLoad(t, p, 0, first, base)
	mustTick(t, p, base) // forwarded and committed
	committed := p.Broker.Committed("omni-syslog", hms.TopicSyslog, part)
	if _, high, _ := p.Broker.Watermarks(hms.TopicSyslog, part); committed != high || high != first {
		t.Fatalf("committed %d, high watermark %d, want %d", committed, high, first)
	}

	// The stall: lines keep arriving and nothing forwards them.
	syslogLoad(t, p, first, stalled, base.Add(time.Second))
	low, _, _ := p.Broker.Watermarks(hms.TopicSyslog, part)
	lost := low - committed
	skipped := obs.Value(p.Gather(), "shastamon_kafka_retention_skipped_total",
		"group", "omni-syslog", "topic", hms.TopicSyslog)
	if lost <= 0 || skipped != float64(lost) {
		t.Fatalf("retention dropped %d unread offsets, the group was charged %v", lost, skipped)
	}

	// The forwarder runs again and drains what is left.
	n, err := p.ForwardPending()
	if err != nil {
		t.Fatal(err)
	}
	if want := stalled - int(lost); n != want {
		t.Fatalf("forwarded %d after the stall, want %d of %d minus %d lost", n, want, stalled, lost)
	}
	end := base.Add(15 * time.Second)
	if got, want := syslogStored(t, p, end.Add(time.Minute)), first+stalled-int(lost); got != want {
		t.Fatalf("Loki holds %d syslog lines, want %d", got, want)
	}
	for key, lag := range p.Broker.GroupLag("omni-syslog") {
		if lag != 0 {
			t.Fatalf("lag %d on %s after the drain", lag, key)
		}
	}

	for ts, deadline := end, base.Add(3*time.Minute); ts.Before(deadline); ts = ts.Add(5 * time.Second) {
		mustTick(t, p, ts)
		if slackTitles(p)["ShastamonKafkaRetentionSkipped"] > 0 {
			return
		}
	}
	t.Fatalf("ShastamonKafkaRetentionSkipped never reached Slack; titles = %v", slackTitles(p))
}

// Tick's retention stage ages out what no consumer reads, on the
// pipeline clock: a record in a topic nobody consumes survives a tick
// inside the default age bound and goes at the first tick past it.
func TestTickAgesOutBrokerTopics(t *testing.T) {
	p := newPipeline(t, Options{})
	const idle = "idle"
	if err := p.Broker.CreateTopic(idle, 1); err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2022, 3, 3, 0, 0, 0, 0, time.UTC)
	if _, _, err := p.Broker.Produce(idle, nil, []byte("old"), t0); err != nil {
		t.Fatal(err)
	}
	mustTick(t, p, t0.Add(kafka.DefaultRetentionAge))
	if low, high, _ := p.Broker.Watermarks(idle, 0); low != 0 || high != 1 {
		t.Fatalf("watermarks [%d,%d) at the age bound, want [0,1)", low, high)
	}
	mustTick(t, p, t0.Add(kafka.DefaultRetentionAge+time.Second))
	if low, high, _ := p.Broker.Watermarks(idle, 0); low != 1 || high != 1 {
		t.Fatalf("watermarks [%d,%d) past the age bound, want [1,1)", low, high)
	}
}
