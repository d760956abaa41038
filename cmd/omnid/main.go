// Command omnid runs the full monitoring pipeline against the simulated
// Perlmutter system on wall-clock time: hardware telemetry and syslog flow
// through Kafka and the Telemetry API into Loki and the TSDB; the Ruler
// and vmalert evaluate the case-study rules; alerts fan out to the
// in-process Slack webhook and ServiceNow instance. A small status server
// exposes the warehouse and notification state.
//
//	omnid -listen 127.0.0.1:8080 -interval 1s -leak-after 5s
//
// Endpoints:
//
//	GET /status              pipeline counters as JSON
//	GET /slack               messages received by the Slack webhook
//	GET /servicenow/alerts   ServiceNow alerts
//	GET /servicenow/incidents
//	GET /loki/api/v1/query{,_range}  Loki query API (LogQL; times in Unix
//	                         ns or RFC3339)
//	GET /api/v1/query{,_range}       Prometheus query API (PromQL; times in
//	                         Unix seconds or RFC3339); ranges are capped
//	                         at 11,000 points per series
//	GET /api/v1/heatmap      node × time error-density grid (JSON); params
//	                         since=30m step=2m, format=render for the
//	                         terminal shading
//	GET /debug/dlq           quarantined (dead-letter) records, logcli style
//	POST /debug/dlq/replay?topic=...  replay a topic's DLQ onto the source topic
//
// With -metrics (default on), the same listener additionally serves:
//
//	GET /metrics             shastamon_* self-metrics (Prometheus text, with
//	                         exemplar trace IDs on the detection-latency buckets)
//	GET /debug/trace/        event traces; /debug/trace/{id} for one, and
//	                         /debug/trace/{id}?format=waterfall for the
//	                         plain-text timed-span waterfall
//	GET /debug/slo           detection-latency SLO report (per-rule burn
//	                         rate, p50/p95/max) as JSON
//	GET /debug/queries       queries executing right now, with running stats
//	POST /debug/queries/{id}/kill  cancel a runaway query mid-scan
//	GET /debug/slowlog       recent slow / limit-breached queries (JSON)
//	GET /debug/templates     mined log templates and miner stats (JSON)
//	GET /debug/pprof/        net/http/pprof profiles
//
// With -meta-alerts, the built-in self-monitoring rule pack (core.MetaRules)
// is evaluated over the pipeline's own shastamon_* series and delivered
// through the same Alertmanager -> Slack/ServiceNow path as hardware alerts.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"shastamon/internal/core"
	"shastamon/internal/experiments"
	"shastamon/internal/frontend"
	"shastamon/internal/ruler"
	"shastamon/internal/shasta"
	"shastamon/internal/syslogd"
	"shastamon/internal/tenant"
	"shastamon/internal/vmalert"
	"shastamon/internal/wal"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8080", "status server address")
	interval := flag.Duration("interval", time.Second, "pipeline tick interval")
	leakAfter := flag.Duration("leak-after", 10*time.Second, "inject a cabinet leak after this long (0 disables)")
	switchAfter := flag.Duration("switch-after", 20*time.Second, "take a switch offline after this long (0 disables)")
	syslogRate := flag.Int("syslog-rate", 20, "synthetic syslog messages per tick")
	rulesPath := flag.String("rules", "", "JSON rule file (see core.RuleFile); default: the paper's two case-study rules")
	metrics := flag.Bool("metrics", true, "serve /metrics, /debug/trace/, /debug/slo, /debug/queries, /debug/slowlog, /debug/templates and /debug/pprof/ on the status listener")
	metaAlerts := flag.Bool("meta-alerts", false, "evaluate the built-in self-monitoring rule pack (SLO burn, stuck breakers, DLQ growth, stage errors, scrape staleness)")
	dataDir := flag.String("data-dir", "", "durable warehouse directory (WAL, sealed-chunk spill, checkpoints); empty runs memory-only")
	walFsync := flag.String("wal-fsync", "interval", "WAL fsync policy: always (sync every append), interval (lazy, default), never")
	walSegment := flag.Int("wal-segment-bytes", 0, "WAL segment rotation size in bytes (0 = 4 MiB default)")
	checkpointEvery := flag.Duration("checkpoint-every", time.Minute, "how often the tick checkpoints the stores to bound WAL replay")
	splitInterval := flag.Duration("split-interval", 0, "query frontend time-split interval (0 = 5m default, negative disables splitting)")
	cacheBytes := flag.Int("result-cache-bytes", 0, "query results cache budget in bytes (0 = 32 MiB default, negative disables)")
	queryConcurrency := flag.Int("query-concurrency", 0, "max concurrently executing range queries per engine (0 = 2×GOMAXPROCS)")
	queryQueueDepth := flag.Int("query-queue-depth", 0, "max range queries waiting per engine before 429 rejection (0 = 64 default)")
	noShardFanout := flag.Bool("no-shard-fanout", false, "disable per-shard query fan-out inside each time split")
	tenantTokens := map[string]string{} // bearer token -> tenant ID
	flag.Func("tenant-token", "tenant:token bearer credential for the push and query APIs (repeatable; any -tenant-token switches them to authenticated mode)",
		func(v string) error {
			id, tok, err := tenant.ParseTokenFlag(v)
			if err != nil {
				return err
			}
			tenantTokens[tok] = id
			return nil
		})
	tenantMaxStreams := flag.Int("tenant-max-streams", 0, "per-tenant live stream/series limit (0 = unlimited)")
	tenantIngestRate := flag.Int("tenant-ingest-rate", 0, "per-tenant log ingest rate limit in bytes/second (0 = unlimited)")
	tenantQueryConcurrency := flag.Int("tenant-query-concurrency", 0, "per-tenant concurrently executing range queries (0 = the engine-wide -query-concurrency)")
	flag.Parse()

	fsync, err := wal.ParseFsyncPolicy(*walFsync)
	if err != nil {
		log.Fatal(err)
	}

	logRules := []ruler.Rule{experiments.LeakRule, experiments.SwitchRule}
	var metricRules []vmalert.Rule
	if *rulesPath != "" {
		logRules, metricRules, err = core.LoadRules(*rulesPath)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("loaded %d log rules and %d metric rules from %s", len(logRules), len(metricRules), *rulesPath)
	}
	var overrides *tenant.Overrides
	if *tenantMaxStreams > 0 || *tenantIngestRate > 0 || *tenantQueryConcurrency > 0 {
		overrides = &tenant.Overrides{Defaults: tenant.Limits{
			MaxStreams:          *tenantMaxStreams,
			IngestRateBytes:     *tenantIngestRate,
			MaxQueryConcurrency: *tenantQueryConcurrency,
		}}
	}
	auth := tenant.NewAuth(tenantTokens)

	p, err := core.New(core.Options{
		LogRules:     logRules,
		MetricRules:  metricRules,
		GroupWait:    time.Second,
		MetaAlerts:   *metaAlerts,
		TenantLimits: overrides,
		TenantTokens: tenantTokens,
		DataDir:      *dataDir,
		WAL: wal.StoreOptions{Options: wal.Options{
			Fsync:        fsync,
			SegmentBytes: *walSegment,
		}},
		CheckpointEvery: *checkpointEvery,
		Frontend: frontend.Config{
			SplitInterval: *splitInterval,
			CacheBytes:    *cacheBytes,
			MaxConcurrent: *queryConcurrency,
			MaxQueueDepth: *queryQueueDepth,
			NoShardFanout: *noShardFanout,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer p.Close()
	if *dataDir != "" {
		rec, _ := p.Warehouse.Recovery()
		log.Printf("durable warehouse at %s: clean=%v replayed=%d record(s), %d corrupt record(s) dropped",
			*dataDir, rec.Logs.Clean && rec.Metrics.Clean, rec.Replayed(), rec.Corrupt())
	}

	hosts := make([]string, 0, 16)
	for i, n := range p.Cluster.Nodes() {
		if i >= 16 {
			break
		}
		hosts = append(hosts, n.String())
	}
	gen := syslogd.NewGenerator(time.Now().UnixNano(), hosts...)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Fault injection timers.
	start := time.Now()
	if *leakAfter > 0 {
		time.AfterFunc(*leakAfter, func() {
			if err := p.Cluster.InjectLeak("x1203c1b0", "A", "Front", time.Now()); err != nil {
				log.Println("leak injection:", err)
				return
			}
			log.Println("injected leak at x1203c1b0")
		})
	}
	if *switchAfter > 0 {
		time.AfterFunc(*switchAfter, func() {
			if err := p.Cluster.SetSwitchState("x1002c1r7b0", shasta.SwitchUnknown); err != nil {
				log.Println("switch fault:", err)
				return
			}
			log.Println("switch x1002c1r7b0 -> UNKNOWN")
		})
	}

	// Synthetic syslog source.
	go func() {
		t := time.NewTicker(*interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case now := <-t.C:
				for i := 0; i < *syslogRate; i++ {
					if err := p.SyslogAggregator.Ingest(gen.Next(now)); err != nil {
						log.Println("syslog:", err)
					}
				}
			}
		}
	}()

	// Status server.
	mux := newStatusMux(p, serverOpts{metrics: *metrics, auth: auth, start: start})

	srv := &http.Server{Addr: *listen, Handler: mux}
	go func() {
		log.Printf("omnid status server on http://%s", *listen)
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()

	log.Printf("pipeline running (tick %s); Ctrl-C to stop", *interval)
	if err := p.Run(ctx, *interval); err != nil && ctx.Err() == nil {
		log.Fatal(err)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = srv.Shutdown(shutdownCtx)
	fmt.Println("bye")
}
