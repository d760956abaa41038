package main

import (
	"fmt"
	"time"

	"shastamon/internal/core"
	"shastamon/internal/logql"
)

// segments is how many equal-work pieces an ingest run is cut into;
// throughput is the median over them, so one noisy-neighbour burst does
// not move it.
const segments = 20

// pipelineKernel is ingest.pipeline: syslog and a sensor sweep travel the
// paper's whole hop chain — producer, Kafka, Telemetry API (loopback
// HTTP), forwarder, template miner, Loki and the TSDB — into a
// memory-only warehouse. No rule is configured and Tick is never called,
// so wal, logql, frontend, ruler and alertmanager do no work here.
type pipelineKernel struct {
	p   *core.Pipeline
	gen *syslogGen
	now time.Time

	syslog, samples int // produced so far, warm-up included
}

var forwarderGroups = []string{"omni-redfish", "omni-sensors", "omni-syslog", "omni-ldms"}

func setupPipeline(seed int64) (*pipelineKernel, error) {
	p, err := core.New(core.Options{Cluster: clusterConfig(seed)})
	if err != nil {
		return nil, err
	}
	k := &pipelineKernel{p: p, gen: newSyslogGen(seed + 10), now: t0}
	// One untimed cycle creates the subscriptions' consumer positions and
	// the first streams.
	if _, _, err := k.cycle(newRecorder(false), -1); err != nil {
		p.Close()
		return nil, err
	}
	return k, nil
}

func (k *pipelineKernel) close() { k.p.Close() }

// cycle pushes one fixed batch through and returns the wall time spent
// inside the program and the messages it acknowledged.
func (k *pipelineKernel) cycle(rec *recorder, id int) (time.Duration, int, error) {
	k.now = k.now.Add(tickStep)
	msgs := k.gen.messages(cycleSyslog, k.now, tickStep)
	var samples, forwarded int
	produce, err := rec.timed("produce", id, func() error {
		for _, m := range msgs {
			if err := k.p.SyslogAggregator.Ingest(m); err != nil {
				return err
			}
		}
		var err error
		_, samples, err = k.p.Collector.CollectOnce(k.now)
		return err
	})
	if err != nil {
		return 0, 0, fmt.Errorf("produce: %w", err)
	}
	forward, err := rec.timed("forward", id, func() error {
		var err error
		forwarded, err = k.p.ForwardPending()
		return err
	})
	if err != nil {
		return 0, 0, fmt.Errorf("forward: %w", err)
	}
	k.syslog += len(msgs)
	k.samples += samples
	rec.ops(len(msgs)+samples, forwarded)
	rec.counts["core_forward_ns"] += float64(forward)
	rec.counts["core_forward_records"] += float64(forwarded)
	var lag int64
	for _, g := range forwarderGroups {
		for _, n := range k.p.Broker.GroupLag(g) {
			lag += n
		}
	}
	rec.counts["kafka_group_lag"] = max(rec.counts["kafka_group_lag"], float64(lag))
	return produce + forward, forwarded, nil
}

// segment drives cycles cycles and records one throughput sample.
func (k *pipelineKernel) segment(rec *recorder, seg, cycles int) error {
	var busy time.Duration
	var acked int
	for c := 0; c < cycles; c++ {
		d, n, err := k.cycle(rec, seg*cycles+c)
		if err != nil {
			return err
		}
		busy += d
		acked += n
	}
	rec.add("ingest_msgs_per_s", float64(acked)/busy.Seconds())
	return nil
}

// run drives segments segments of cycles cycles each, then checks.
func (k *pipelineKernel) run(rec *recorder, cycles int) error {
	for s := 0; s < segments; s++ {
		if err := k.segment(rec, s, cycles); err != nil {
			return err
		}
	}
	k.check(rec)
	return nil
}

// check compares what the harness produced with what the warehouse says
// it holds, by its counters and by a LogQL count over everything.
func (k *pipelineKernel) check(rec *recorder) {
	st := k.p.Warehouse.Stats()
	if st.LogMessages != int64(k.syslog) || st.LogStore.Entries != int64(k.syslog) {
		rec.problem("ingest.pipeline: produced %d syslog messages, warehouse holds %d (store %d)", k.syslog, st.LogMessages, st.LogStore.Entries)
	}
	if st.Samples != int64(k.samples) {
		rec.problem("ingest.pipeline: produced %d sensor samples, warehouse holds %d", k.samples, st.Samples)
	}
	if _, dropped := k.p.SyslogAggregator.Stats(); dropped != 0 || st.LogStore.DiscardedOOO != 0 {
		rec.problem("ingest.pipeline: %d dropped by the aggregator, %d out of order", dropped, st.LogStore.DiscardedOOO)
	}
	if lag := rec.counts["kafka_group_lag"]; lag != 0 {
		rec.problem("ingest.pipeline: forwarder left %v messages in Kafka at the end of a cycle", lag)
	}
	end := k.now.Add(tickStep)
	total, err := countAll(k.p.Warehouse.LogQL, `{data_type="syslog"}`, t0, end)
	if err != nil || total != float64(k.syslog) {
		rec.problem("ingest.pipeline: count_over_time finds %v of %d syslog entries (%v)", total, k.syslog, err)
	}
	rec.counts["loki_streams"] = float64(st.LogStore.Streams)
	rec.counts["loki_chunks"] = float64(st.LogStore.Chunks)
	rec.counts["loki_out_of_order"] = float64(st.LogStore.DiscardedOOO)
}

// countAll asks the engine how many entries the selector holds in
// [from, to].
func countAll(eng *logql.Engine, selector string, from, to time.Time) (float64, error) {
	q := fmt.Sprintf(`sum(count_over_time(%s[%ds]))`, selector, int(to.Sub(from)/time.Second)+1)
	v, err := eng.QueryInstant(q, to.UnixNano())
	if err != nil {
		return 0, err
	}
	if len(v) != 1 {
		return 0, fmt.Errorf("%d series", len(v))
	}
	return v[0].V, nil
}
