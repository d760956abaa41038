package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"shastamon/internal/core"
	"shastamon/internal/labels"
	"shastamon/internal/loki"
	"shastamon/internal/omni"
)

const (
	// group is how many batches one ingest_logs / ingest_metrics span
	// covers: a 256-entry push takes well under the 1 ms a span must
	// cover for the clock reads (~650 ns each here) to stay negligible.
	group = 8
	// reopens is how often the crash image is recovered; recovery_s is
	// the median.
	reopens = 5
)

// durableKernel is ingest.durable: 256-entry log batches and as many
// metric samples go straight into a warehouse opened on a data directory
// at default WAL options (fsync=interval), with a checkpoint after one
// and two thirds of the corpus. The warehouse is then abandoned without
// Shutdown — a crash image of one checkpoint plus a WAL tail one third of
// the corpus long — and reopened. wal, chunkenc and the durable halves of
// loki and tsdb do the work; kafka, telemetry and the query engines none.
type durableKernel struct {
	dir    string
	wh     *omni.Warehouse
	gen    *syslogGen
	series []labels.Labels
	now    time.Time

	logs, samples int64
}

func setupDurable(seed int64, dir string) (*durableKernel, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	wh, err := omni.Open(omni.Config{DataDir: dir})
	if err != nil {
		return nil, err
	}
	k := &durableKernel{dir: dir, wh: wh, gen: newSyslogGen(seed + 20), now: t0}
	// One series per sample of a batch: 64 nodes x 4 sensors = batchSize.
	for _, n := range mustCluster(seed).Nodes() {
		for _, sensor := range []string{"CPU", "Memory", "VRM", "NIC"} {
			k.series = append(k.series, labels.FromStrings("xname", n.String(), "physical_context", sensor, "unit", "Cel"))
		}
	}
	if len(k.series) != batchSize {
		return nil, fmt.Errorf("durable: %d series for batches of %d", len(k.series), batchSize)
	}
	return k, nil
}

// close removes the data directory. The warehouse is never shut down:
// abandoning it is the crash.
func (k *durableKernel) close() { _ = os.RemoveAll(k.dir) }

// ingestGroup pushes group batches of logs, then as many of samples, and
// returns the time inside the warehouse.
func (k *durableKernel) ingestGroup(rec *recorder, id int) (time.Duration, error) {
	batches := make([][]loki.PushStream, group)
	stamps := make([]int64, group)
	for b := range batches {
		k.now = k.now.Add(time.Second)
		stamps[b] = k.now.UnixMilli()
		msgs := k.gen.messages(batchSize, k.now, time.Second)
		batches[b] = make([]loki.PushStream, len(msgs))
		for i, m := range msgs {
			batches[b][i] = core.SyslogToLoki(m, clusterName)
		}
	}
	logs, err := rec.timed("ingest_logs", id, func() error {
		for _, batch := range batches {
			if err := k.wh.IngestLogs(batch); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("ingest logs: %w", err)
	}
	metrics, err := rec.timed("ingest_metrics", id, func() error {
		for _, ms := range stamps {
			for i := 0; i < batchSize; i++ {
				if err := k.wh.IngestMetric("cray_telemetry_temperature", k.series[i], ms, 40+float64(i%50)); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("ingest metrics: %w", err)
	}
	k.logs += group * batchSize
	k.samples += group * batchSize
	rec.ops(2*group*batchSize, 2*group*batchSize)
	return logs + metrics, nil
}

// segment ingests groups groups, records one throughput sample and, after
// one and two thirds of the corpus, checkpoints.
func (k *durableKernel) segment(rec *recorder, seg, groups int) error {
	var busy time.Duration
	for g := 0; g < groups; g++ {
		d, err := k.ingestGroup(rec, seg*groups+g)
		if err != nil {
			return err
		}
		busy += d
	}
	rec.add("durable_ingest_msgs_per_s", float64(2*group*batchSize*groups)/busy.Seconds())
	if seg == segments/3 || seg == 2*segments/3 {
		d, err := rec.timed("checkpoint", seg, k.wh.Checkpoint)
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		rec.add("checkpoint_ms", ms(d))
	}
	return nil
}

// run ingests segments segments of groups groups each, then crashes the
// warehouse, measures the image and recovers it.
func (k *durableKernel) run(rec *recorder, groups int) error {
	for s := 0; s < segments; s++ {
		if err := k.segment(rec, s, groups); err != nil {
			return err
		}
	}
	k.checkCounts(rec, k.wh, "before the crash")
	ls, mst := k.wh.Logs.WALStats(), k.wh.Metrics.WALStats()
	user := float64(k.wh.Stats().LogBytes + 16*k.samples) // a sample is a timestamp and a value
	rec.counts["wal_bytes_per_user_byte"] = float64(ls.Bytes+mst.Bytes) / user
	rec.counts["wal_fsyncs"] = float64(ls.Fsyncs + mst.Fsyncs)
	rec.counts["wal_segments"] = float64(ls.Segments + mst.Segments)
	k.wh = nil // the crash

	var disk int64
	err := filepath.WalkDir(k.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err == nil {
			disk += fi.Size()
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("measure data dir: %w", err)
	}
	rec.add("disk_bytes_per_msg", float64(disk)/float64(k.logs+k.samples))

	for r := 0; r < reopens; r++ {
		var wh *omni.Warehouse
		d, err := rec.timed("reopen", r, func() error {
			var err error
			wh, err = omni.Open(omni.Config{DataDir: k.dir})
			return err
		})
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		rec.add("recovery_s", d.Seconds())
		info, _ := wh.Recovery()
		if info.Corrupt() != 0 || info.Logs.Clean || !info.Logs.Checkpoint {
			rec.problem("ingest.durable: recovery %d: corrupt=%d clean=%v checkpoint=%v", r, info.Corrupt(), info.Logs.Clean, info.Logs.Checkpoint)
		}
		rec.counts["wal_replayed_records"] = float64(info.Replayed())
		rec.counts["wal_replay_ns"] = float64(d)
		k.checkCounts(rec, wh, fmt.Sprintf("after reopen %d", r))
	}
	return nil
}

// checkCounts holds a warehouse to everything that was acknowledged.
func (k *durableKernel) checkCounts(rec *recorder, wh *omni.Warehouse, when string) {
	st := wh.Stats()
	if st.LogStore.Entries != k.logs || st.MetricStore.Samples != k.samples || st.LogStore.DiscardedOOO != 0 || st.MetricStore.Dropped != 0 {
		rec.problem("ingest.durable %s: acknowledged %d entries and %d samples, warehouse holds %d and %d (%d out of order, %d dropped)",
			when, k.logs, k.samples, st.LogStore.Entries, st.MetricStore.Samples, st.LogStore.DiscardedOOO, st.MetricStore.Dropped)
	}
	total, err := countAll(wh.LogQL, `{data_type="syslog"}`, t0, k.now.Add(time.Second))
	if err != nil || total != float64(k.logs) {
		rec.problem("ingest.durable %s: count_over_time finds %v of %d entries (%v)", when, total, k.logs, err)
	}
}
