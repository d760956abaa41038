package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"shastamon/internal/alertmanager"
	"shastamon/internal/anomaly"
	"shastamon/internal/chunkenc"
	"shastamon/internal/core"
	"shastamon/internal/experiments"
	"shastamon/internal/hms"
	"shastamon/internal/kafka"
	"shastamon/internal/labels"
	"shastamon/internal/logql"
	"shastamon/internal/loki"
	"shastamon/internal/promql"
	"shastamon/internal/servicenow"
	"shastamon/internal/slack"
	"shastamon/internal/stats"
	"shastamon/internal/telemetry"
	"shastamon/internal/tsdb"
	"shastamon/internal/vmalert"
	"shastamon/internal/wal"
)

// perLayer is the ledger of the traced pass. Every cost is per unit of
// pipeline work (message, record, entry, line, sample, rule, alert,
// notification), so numbers add up across layers. Where a line says
// "replay" the number comes from driving that layer's public API alone
// with the run's generated inputs; otherwise from counters and spans of
// the traced kernels.
var perLayer = []metricSpec{
	{Name: "kafka_produce_ns_per_msg", Unit: "ns", Better: "lower"},              // replay
	{Name: "kafka_fetch_ns_per_msg", Unit: "ns", Better: "lower"},                // replay
	{Name: "kafka_group_lag_max", Unit: "count", Better: "lower"},                // ingest.pipeline, end of cycle
	{Name: "telemetry_poll_ns_per_msg", Unit: "ns", Better: "lower"},             // replay, loopback HTTP
	{Name: "telemetry_wire_bytes_per_msg", Unit: "B/msg", Better: "lower"},       // replay
	{Name: "core_forward_ns_per_record", Unit: "ns", Better: "lower"},            // ingest.pipeline forward spans
	{Name: "anomaly_learn_ns_per_line", Unit: "ns", Better: "lower"},             // replay
	{Name: "loki_push_ns_per_entry_batch1", Unit: "ns", Better: "lower"},         // replay
	{Name: "loki_push_ns_per_entry_batch256", Unit: "ns", Better: "lower"},       // replay
	{Name: "loki_streams", Unit: "count", Better: "lower"},                       // ingest.pipeline
	{Name: "loki_chunks", Unit: "count", Better: "lower"},                        // ingest.pipeline
	{Name: "loki_out_of_order", Unit: "count", Better: "lower"},                  // ingest.pipeline
	{Name: "tsdb_append_ns_per_sample", Unit: "ns", Better: "lower"},             // replay
	{Name: "wal_append_ns_per_record", Unit: "ns", Better: "lower"},              // replay
	{Name: "wal_replay_entries_per_s", Unit: "1/s", Better: "higher"},            // replay
	{Name: "wal_bytes_per_user_byte", Unit: "ratio", Better: "lower"},            // ingest.durable
	{Name: "wal_fsyncs", Unit: "count", Better: "lower"},                         // ingest.durable
	{Name: "wal_segments", Unit: "count", Better: "lower"},                       // ingest.durable
	{Name: "wal_recovery_records_per_s", Unit: "1/s", Better: "higher"},          // ingest.durable reopen
	{Name: "checkpoint_p50_ms", Unit: "ms", Better: "lower"},                     // ingest.durable
	{Name: "chunkenc_append_ns_per_entry", Unit: "ns", Better: "lower"},          // replay
	{Name: "chunkenc_iterate_ns_per_entry", Unit: "ns", Better: "lower"},         // replay
	{Name: "chunkenc_compression_ratio", Unit: "ratio", Better: "higher"},        // replay
	{Name: "block_cache_hits", Unit: "count", Better: "higher"},                  // query.dashboard
	{Name: "block_cache_misses", Unit: "count", Better: "lower"},                 // query.dashboard
	{Name: "block_cache_evictions", Unit: "count", Better: "lower"},              // query.dashboard
	{Name: "dashboard_store_raw_mb", Unit: "MB", Better: "lower"},                // query.dashboard: what a full scan decompresses
	{Name: "dashboard_block_cache_mb", Unit: "MB", Better: "higher"},             // its cache budget
	{Name: "logql_json_ns_per_line", Unit: "ns", Better: "lower"},                // replay
	{Name: "logql_json_allocs_per_line", Unit: "count", Better: "lower"},         // replay
	{Name: "logql_pattern_ns_per_line", Unit: "ns", Better: "lower"},             // replay
	{Name: "logql_pattern_allocs_per_line", Unit: "count", Better: "lower"},      // replay
	{Name: "logql_rule_lines_per_request", Unit: "count", Better: "lower"},       // query.dashboard
	{Name: "promql_ns_per_sample", Unit: "ns", Better: "lower"},                  // replay
	{Name: "frontend_cache_hit_ratio", Unit: "ratio", Better: "higher"},          // query.dashboard refreshes
	{Name: "frontend_splits_per_request", Unit: "count", Better: "lower"},        // query.dashboard cold panels
	{Name: "frontend_shards_per_request", Unit: "count", Better: "lower"},        // query.dashboard cold panels
	{Name: "frontend_queue_wait_ms", Unit: "ms", Better: "lower"},                // query.dashboard, all requests
	{Name: "frontend_rejected", Unit: "count", Better: "lower"},                  // query.dashboard
	{Name: "ruler_eval_ns_per_rule", Unit: "ns", Better: "lower"},                // detect.live ruler stage
	{Name: "vmalert_eval_ns_per_rule", Unit: "ns", Better: "lower"},              // replay
	{Name: "alertmanager_ns_per_alert", Unit: "ns", Better: "lower"},             // replay, Receive+Flush
	{Name: "alertmanager_notifications", Unit: "count", Better: "lower"},         // detect.live
	{Name: "notify_redeliveries", Unit: "count", Better: "lower"},                // detect.live, Slack + ServiceNow retries
	{Name: "slack_notify_ns_per_notification", Unit: "ns", Better: "lower"},      // replay, loopback HTTP
	{Name: "servicenow_notify_ns_per_notification", Unit: "ns", Better: "lower"}, // replay, loopback HTTP
	{Name: "hms_collect_ns_per_sample", Unit: "ns", Better: "lower"},             // replay
	{Name: "vmagent_scrape_ms_per_tick", Unit: "ms", Better: "lower"},            // detect.live scrape stage
	{Name: "tick_collect_ms", Unit: "ms", Better: "lower"},                       // detect.live, Gather() stage split per tick
	{Name: "tick_ldms_ms", Unit: "ms", Better: "lower"},
	{Name: "tick_forward_ms", Unit: "ms", Better: "lower"},
	{Name: "tick_fabric_poll_ms", Unit: "ms", Better: "lower"},
	{Name: "tick_scrape_ms", Unit: "ms", Better: "lower"},
	{Name: "tick_ruler_ms", Unit: "ms", Better: "lower"},
	{Name: "tick_vmalert_ms", Unit: "ms", Better: "lower"},
	{Name: "tick_alertmanager_flush_ms", Unit: "ms", Better: "lower"},
	{Name: "tick_retention_ms", Unit: "ms", Better: "lower"},
	{Name: "tick_checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "explained_share", Unit: "ratio", Better: "higher"}, // stage sum over tick wall time
}

const replayN = 20000 // units per layer replay: tens of milliseconds each, far above clock cost

// nsPer times fn once and returns nanoseconds per unit.
func nsPer(units int, fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	return float64(time.Since(start)) / float64(units), err
}

// countingTransport counts response body bytes: the Telemetry API's wire
// volume.
type countingTransport struct{ bytes atomic.Int64 }

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err == nil {
		resp.Body = countingBody{resp.Body, &c.bytes}
	}
	return resp, err
}

type nullReceiver string

func (r nullReceiver) Name() string                         { return string(r) }
func (nullReceiver) Notify(alertmanager.Notification) error { return nil }

// layerMetrics fills doc.Metrics with every per-layer metric: first what
// the traced kernels counted, then the standalone replays.
func layerMetrics(doc *document, rec *recorder, seed int64, dir string) error {
	set := func(name string, v float64) {
		for _, m := range perLayer {
			if m.Name == name {
				doc.Metrics[name] = measured{Value: v, Unit: m.Unit}
				return
			}
		}
		panic("layers: " + name + " is not in perLayer")
	}
	c := rec.counts
	ticks := float64(len(rec.series["tick_ms"]))

	set("kafka_group_lag_max", c["kafka_group_lag"])
	set("core_forward_ns_per_record", c["core_forward_ns"]/c["core_forward_records"])
	set("loki_streams", c["loki_streams"])
	set("loki_chunks", c["loki_chunks"])
	set("loki_out_of_order", c["loki_out_of_order"])
	set("wal_bytes_per_user_byte", c["wal_bytes_per_user_byte"])
	set("wal_fsyncs", c["wal_fsyncs"])
	set("wal_segments", c["wal_segments"])
	set("wal_recovery_records_per_s", c["wal_replayed_records"]/(c["wal_replay_ns"]/1e9))
	set("checkpoint_p50_ms", median(rec.series["checkpoint_ms"]))
	set("block_cache_hits", c["block_cache_hits"])
	set("block_cache_misses", c["block_cache_misses"])
	set("block_cache_evictions", c["block_cache_evictions"])
	set("dashboard_store_raw_mb", c["dashboard_raw_bytes"]/(1<<20))
	set("dashboard_block_cache_mb", float64(dashCacheBytes)/(1<<20))
	set("logql_rule_lines_per_request", c["rule_lines"]/c["rule_requests"])
	set("frontend_cache_hit_ratio", c["panel_refresh_result_hits"]/(c["panel_refresh_result_hits"]+c["panel_refresh_result_misses"]))
	set("frontend_splits_per_request", c["panel_cold_splits"]/c["panel_cold_requests"])
	set("frontend_shards_per_request", c["panel_cold_shards"]/c["panel_cold_requests"])
	set("frontend_queue_wait_ms", 1e3*(c["rule_queue_s"]+c["panel_cold_queue_s"]+c["panel_refresh_queue_s"])/(c["rule_requests"]+c["panel_cold_requests"]+c["panel_refresh_requests"]))
	set("frontend_rejected", c["frontend_rejected"])
	set("ruler_eval_ns_per_rule", 1e9*c["stage_ruler_s"]/(2*c["ruler_evaluations_total"]))
	set("alertmanager_notifications", c["alertmanager_notifications_total"])
	set("notify_redeliveries", c["slack_post_retries_total"]+c["servicenow_post_retries_total"])
	set("vmagent_scrape_ms_per_tick", 1e3*c["stage_scrape_s"]/ticks)
	for _, s := range tickStages {
		set("tick_"+s+"_ms", 1e3*c["stage_"+s+"_s"]/ticks)
	}
	set("explained_share", c["explained_share"])

	// The traced kernels' own end-to-end medians, for trace_overhead_share.
	for _, m := range endToEnd {
		if v := rec.series[m.series]; m.series != "" && len(v) > 0 {
			doc.Metrics["traced_"+m.Name] = measured{Value: median(v), Unit: m.Unit, Samples: len(v)}
		}
	}
	return replayLayers(set, seed, filepath.Join(dir, fmt.Sprintf("wal-%d", os.Getpid())))
}

// replayLayers drives each layer's public API alone with generated
// inputs. One goroutine, one layer at a time.
func replayLayers(set func(string, float64), seed int64, walDir string) error {
	msgs := newSyslogGen(seed+40).messages(replayN, t0, time.Hour)
	streams := make([]loki.PushStream, len(msgs))
	for i, m := range msgs {
		streams[i] = core.SyslogToLoki(m, clusterName)
	}

	// kafka and the Telemetry API in front of it.
	broker := kafka.NewBroker()
	if err := broker.CreateTopic(hms.TopicSyslog, 4); err != nil {
		return err
	}
	payload := []byte(`{"facility":1,"severity":6,"hostname":"nid000001","app":"kernel","text":"eth0: NIC Link is Up 100 Gbps"}`)
	v, err := nsPer(replayN, func() error {
		for _, m := range msgs {
			if _, _, err := broker.Produce(hms.TopicSyslog, []byte(m.Hostname), payload, m.Timestamp); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("kafka produce: %w", err)
	}
	set("kafka_produce_ns_per_msg", v)
	fetched := 0
	if v, err = nsPer(replayN, func() error {
		for part := 0; part < 4; part++ {
			for off := int64(0); ; {
				got, err := broker.Fetch(hms.TopicSyslog, part, off, 500)
				if err != nil {
					return err
				}
				if len(got) == 0 {
					break
				}
				fetched += len(got)
				off = got[len(got)-1].Offset + 1
			}
		}
		return nil
	}); err != nil || fetched != replayN {
		return fmt.Errorf("kafka fetch: %d of %d (%v)", fetched, replayN, err)
	}
	set("kafka_fetch_ns_per_msg", v)

	tsrv, err := telemetry.NewServer(telemetry.ServerConfig{Broker: broker})
	if err != nil {
		return err
	}
	web := httptest.NewServer(tsrv.Handler())
	wire := &countingTransport{}
	sub, err := telemetry.NewClient(web.URL, "", &http.Client{Transport: wire}).Subscribe("bench", hms.TopicSyslog)
	if err != nil {
		web.Close()
		return fmt.Errorf("telemetry subscribe: %w", err)
	}
	polled := 0
	v, err = nsPer(replayN, func() error {
		for {
			recs, err := sub.Poll(2000, 0)
			if err != nil || len(recs) == 0 {
				return err
			}
			polled += len(recs)
		}
	})
	_ = sub.Close()
	web.Close()
	if err != nil || polled != replayN {
		return fmt.Errorf("telemetry poll: %d of %d (%v)", polled, replayN, err)
	}
	set("telemetry_poll_ns_per_msg", v)
	set("telemetry_wire_bytes_per_msg", float64(wire.bytes.Load())/replayN)

	// anomaly: the template miner on the forwarder's path.
	miner := anomaly.NewMiner(anomaly.MinerConfig{})
	v, _ = nsPer(replayN, func() error {
		for _, m := range msgs {
			miner.Learn(m.Text)
		}
		return nil
	})
	set("anomaly_learn_ns_per_line", v)

	// loki and tsdb, memory-only.
	store := loki.NewStore(loki.DefaultLimits())
	if v, err = nsPer(replayN, func() error {
		for i := range streams {
			if err := store.Push(streams[i : i+1]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return fmt.Errorf("loki push: %w", err)
	}
	set("loki_push_ns_per_entry_batch1", v)
	store = loki.NewStore(loki.DefaultLimits())
	if v, err = nsPer(replayN, func() error {
		for i := 0; i < len(streams); i += batchSize {
			if err := store.Push(streams[i:min(i+batchSize, len(streams))]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return fmt.Errorf("loki push: %w", err)
	}
	set("loki_push_ns_per_entry_batch256", v)

	db := tsdb.New()
	series := make([]labels.Labels, 200)
	for i := range series {
		series[i] = labels.FromStrings("xname", fmt.Sprintf("x1000c%ds0b0n0", i), "unit", "Cel")
	}
	if v, err = nsPer(replayN, func() error {
		for i := 0; i < replayN; i++ {
			if err := db.AppendMetric("cray_telemetry_temperature", series[i%len(series)], t0.UnixMilli()+int64(i/len(series))*1000, float64(40+i%50)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return fmt.Errorf("tsdb append: %w", err)
	}
	set("tsdb_append_ns_per_sample", v)

	// promql: one range function over every stored sample.
	eng := promql.NewEngine(db)
	at := t0.UnixMilli() + int64(replayN/len(series))*1000
	const promRounds = 20
	if v, err = nsPer(promRounds*replayN, func() error {
		for i := 0; i < promRounds; i++ {
			if _, err := eng.Query(`max_over_time(cray_telemetry_temperature[10m])`, at); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return fmt.Errorf("promql: %w", err)
	}
	set("promql_ns_per_sample", v)

	// wal: append and replay of records the size of a one-entry push.
	defer os.RemoveAll(walDir)
	log, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		return err
	}
	record := make([]byte, 96)
	if v, err = nsPer(replayN, func() error {
		for i := 0; i < replayN; i++ {
			if err := log.Append(record); err != nil {
				return err
			}
		}
		return log.Close()
	}); err != nil {
		return fmt.Errorf("wal append: %w", err)
	}
	set("wal_append_ns_per_record", v)
	replayed := 0
	if v, err = nsPer(replayN, func() error {
		_, err := wal.Replay(walDir, false, func([]byte) error { replayed++; return nil })
		return err
	}); err != nil || replayed != replayN {
		return fmt.Errorf("wal replay: %d of %d (%v)", replayed, replayN, err)
	}
	set("wal_replay_entries_per_s", 1e9/v)

	// chunkenc: one stream's worth of lines into chunks and back out.
	var chunks []*chunkenc.Chunk
	if v, err = nsPer(replayN, func() error {
		c := chunkenc.New(chunkenc.Options{})
		for i, m := range msgs {
			e := chunkenc.Entry{Timestamp: int64(i), Line: m.Text}
			if c.Full() {
				if err := c.Close(); err != nil {
					return err
				}
				chunks, c = append(chunks, c), chunkenc.New(chunkenc.Options{})
			}
			if err := c.Append(e); err != nil {
				return err
			}
		}
		chunks = append(chunks, c)
		return c.Close()
	}); err != nil {
		return fmt.Errorf("chunkenc append: %w", err)
	}
	set("chunkenc_append_ns_per_entry", v)
	var raw, comp, read int
	if v, err = nsPer(replayN, func() error {
		for _, c := range chunks {
			raw, comp = raw+c.RawBytes(), comp+c.CompressedBytes()
			it := c.Iterator(0, int64(replayN))
			for it.Next() {
				read++
			}
			if err := it.Err(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil || read != replayN {
		return fmt.Errorf("chunkenc iterate: %d of %d (%v)", read, replayN, err)
	}
	set("chunkenc_iterate_ns_per_entry", v)
	set("chunkenc_compression_ratio", float64(raw)/float64(comp))

	// logql: the two rule pipelines over lines that all pass the filter.
	for _, q := range []struct {
		name, expr, line string
		ls               labels.Labels
	}{
		{"json", experiments.LeakRule.Expr, redfishStreams("x1000c0b0", t0, true)[0].Entries[0].Line,
			labels.FromStrings("Context", "x1000c0b0", "cluster", clusterName, "data_type", "redfish_event")},
		{"pattern", experiments.SwitchRule.Expr, switchLine("x1000c0r0b0"), core.FabricEventLabels(clusterName)},
	} {
		st := loki.NewStore(loki.DefaultLimits())
		entries := make([]loki.Entry, replayN)
		for i := range entries {
			entries[i] = loki.Entry{Timestamp: t0.UnixNano() - int64(replayN-i)*int64(time.Millisecond), Line: q.line}
		}
		if err := st.Push([]loki.PushStream{{Labels: q.ls, Entries: entries}}); err != nil {
			return fmt.Errorf("logql %s preload: %w", q.name, err)
		}
		ctx, sc := stats.NewContext(context.Background())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		v, err = nsPer(1, func() error {
			_, err := logql.NewEngine(st).QueryInstantContext(ctx, q.expr, t0.UnixNano())
			return err
		})
		runtime.ReadMemStats(&after)
		lines := float64(sc.Snapshot().Summary.TotalLinesProcessed)
		if err != nil || lines != replayN {
			return fmt.Errorf("logql %s: scanned %v of %d lines (%v)", q.name, lines, replayN, err)
		}
		set("logql_"+q.name+"_ns_per_line", v/lines)
		set("logql_"+q.name+"_allocs_per_line", float64(after.Mallocs-before.Mallocs)/lines)
	}

	// vmalert: one threshold rule over the series above.
	now := func() time.Time { return time.UnixMilli(at) }
	va, err := vmalert.New(eng, nullNotifier{}, now, vmalert.Rule{Name: "NodeHot", Expr: tempQuery})
	if err != nil {
		return err
	}
	const evals = 200
	if v, err = nsPer(evals, func() error {
		for i := 0; i < evals; i++ {
			if _, err := va.EvalOnce(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return fmt.Errorf("vmalert: %w", err)
	}
	set("vmalert_eval_ns_per_rule", v)

	// alertmanager: one group per alert, as detect.live routes them.
	const alerts = 2000
	clock := t0
	am, err := alertmanager.New(alertmanager.Config{
		Route:     &alertmanager.Route{Receiver: "null", GroupWait: time.Nanosecond, GroupBy: []string{"alertname", "xname"}},
		Receivers: []alertmanager.Receiver{nullReceiver("null")},
		Now:       func() time.Time { return clock },
	})
	if err != nil {
		return err
	}
	batch := make([]alertmanager.Alert, alerts)
	for i := range batch {
		batch[i] = alertmanager.Alert{Labels: labels.FromStrings("alertname", "SwitchOffline", "severity", "critical", "xname", fmt.Sprintf("x1000c0r%db0", i))}
	}
	sent := 0
	v, _ = nsPer(alerts, func() error {
		for i := 0; i < alerts; i += 10 {
			am.Receive(batch[i : i+10]...)
			clock = clock.Add(time.Second)
			sent += len(am.Flush())
		}
		return nil
	})
	if sent != alerts {
		return fmt.Errorf("alertmanager: %d notifications for %d alerts", sent, alerts)
	}
	set("alertmanager_ns_per_alert", v)

	// The two notifiers over loopback HTTP.
	note := alertmanager.Notification{Receiver: "slack", Status: alertmanager.StatusFiring, GroupLabels: batch[0].Labels, Alerts: batch[:1]}
	const notes = 300
	hook := slack.NewWebhook()
	web = httptest.NewServer(hook.Handler())
	sn := slack.NewNotifier("slack", web.URL, "#perlmutter-alerts", nil)
	v, err = nsPer(notes, func() error {
		for i := 0; i < notes; i++ {
			if err := sn.Notify(note); err != nil {
				return err
			}
		}
		return nil
	})
	web.Close()
	if err != nil || len(hook.Messages()) != notes {
		return fmt.Errorf("slack notify: %d of %d (%v)", len(hook.Messages()), notes, err)
	}
	set("slack_notify_ns_per_notification", v)
	inst := servicenow.NewInstance(servicenow.Config{})
	web = httptest.NewServer(inst.Handler())
	nn := servicenow.NewNotifier("servicenow", web.URL, nil)
	v, err = nsPer(notes, func() error {
		for i := 0; i < notes; i++ {
			if err := nn.Notify(note); err != nil {
				return err
			}
		}
		return nil
	})
	web.Close()
	if err != nil || len(inst.Events()) != notes {
		return fmt.Errorf("servicenow notify: %d of %d (%v)", len(inst.Events()), notes, err)
	}
	set("servicenow_notify_ns_per_notification", v)

	// hms + shasta: sensor sweeps into Kafka.
	collector, err := hms.NewCollector(mustCluster(seed), kafka.NewBroker(), 4)
	if err != nil {
		return err
	}
	const sweeps = 50
	samples := 0
	if v, err = nsPer(1, func() error {
		for i := 0; i < sweeps; i++ {
			_, n, err := collector.CollectOnce(t0.Add(time.Duration(i) * tickStep))
			if err != nil {
				return err
			}
			samples += n
		}
		return nil
	}); err != nil {
		return fmt.Errorf("hms collect: %w", err)
	}
	set("hms_collect_ns_per_sample", v/float64(samples))
	return nil
}

// nullNotifier swallows a rule evaluator's alerts.
type nullNotifier struct{}

func (nullNotifier) Receive(...alertmanager.Alert) {}
