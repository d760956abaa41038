package frontend_test

import (
	"fmt"
	"testing"

	"shastamon/internal/frontend"
	"shastamon/internal/logql"
	"shastamon/internal/promql"
)

// rejected marks a query the language does not parse; no String() can
// start with '<'.
const rejected = "<rejected>"

// grammarCorpus records, for each query, what LogQL's and PromQL's
// parsers made of it before the two languages shared one grammar:
// rejected, or the String() the results cache keys by. It holds every
// query literal of the program (the paper's two rules, the meta-alert
// rules, the dashboards, the examples and experiments, the benchmark's
// queries), the golden suites' queries and lexical edge cases.
// grammarChanges lists each row that differs since, with its reason.
var grammarCorpus = []struct{ q, logql, promql string }{
	{`sum(count_over_time({data_type="redfish_event"} |= "CabinetLeakDetected" | json [60m])) by (severity, cluster, Context, message_id, message) > 0`, `sum(count_over_time({data_type="redfish_event"} |= "CabinetLeakDetected" | json [1h0m0s])) by (severity, cluster, Context, message_id, message) > 0`, rejected},
	{`sum(count_over_time({app="fabric_manager_monitor"} |= "fm_switch_offline" | pattern "[<sev>] problem:<problem>, xname:<xname>, state:<state>" [5m])) by (sev, problem, xname, state) > 0`, `sum(count_over_time({app="fabric_manager_monitor"} |= "fm_switch_offline" | pattern "[<sev>] problem:<problem>, xname:<xname>, state:<state>" [5m0s])) by (sev, problem, xname, state) > 0`, rejected},
	{`sum(count_over_time({data_type="redfish_event"} |= "CabinetLeakDetected" | json [60m])) by (severity, cluster, context, message_id, message)`, `sum(count_over_time({data_type="redfish_event"} |= "CabinetLeakDetected" | json [1h0m0s])) by (severity, cluster, context, message_id, message)`, rejected},
	{`sum(count_over_time({app="fabric_manager_monitor"} |= "fm_switch_offline" | pattern "[<severity>] problem:<problem>, xname:<xname>, state:<state>" [5m])) by (severity, problem, xname, state) > 0`, `sum(count_over_time({app="fabric_manager_monitor"} |= "fm_switch_offline" | pattern "[<severity>] problem:<problem>, xname:<xname>, state:<state>" [5m0s])) by (severity, problem, xname, state) > 0`, rejected},
	{`sum(count_over_time({data_type="redfish_event"} |= "CabinetLeakDetected" | json [60m])) by (Context) > 0`, `sum(count_over_time({data_type="redfish_event"} |= "CabinetLeakDetected" | json [1h0m0s])) by (Context) > 0`, rejected},
	{`sum(count_over_time({app="fabric_manager_monitor"} |= "fm_switch_offline" [5m])) > 0`, `sum(count_over_time({app="fabric_manager_monitor"} |= "fm_switch_offline" [5m0s])) > 0`, rejected},
	{`sum(count_over_time({data_type="syslog", app="mmfs"} |= "Disk failure" [10m])) by (hostname) > 0`, `sum(count_over_time({data_type="syslog", app="mmfs"} |= "Disk failure" [10m0s])) by (hostname) > 0`, rejected},
	{`sum(count_over_time({data_type="syslog"}[10m])) by (app)`, `sum(count_over_time({data_type="syslog"} [10m0s])) by (app)`, `sum(count_over_time({data_type="syslog"}[10m0s])) by (app)`},
	{`{data_type="redfish_event"} |= "CabinetLeakDetected"`, `{data_type="redfish_event"} |= "CabinetLeakDetected"`, rejected},
	{`sum(count_over_time({data_type="redfish_event"} |= "CabinetLeakDetected" | json [60m])) by (Context)`, `sum(count_over_time({data_type="redfish_event"} |= "CabinetLeakDetected" | json [1h0m0s])) by (Context)`, rejected},
	{`{data_type="redfish_event"}`, `{data_type="redfish_event"}`, rejected},
	{`sum(count_over_time({data_type="redfish_event"} |= "CabinetLeakDetected" | json [60m])) by (severity, cluster, Context, message_id)`, `sum(count_over_time({data_type="redfish_event"} |= "CabinetLeakDetected" | json [1h0m0s])) by (severity, cluster, Context, message_id)`, rejected},
	{`{app="fabric_manager_monitor"} |= "fm_switch_offline"`, `{app="fabric_manager_monitor"} |= "fm_switch_offline"`, rejected},
	{`{app="fabric_manager_monitor"}`, `{app="fabric_manager_monitor"}`, rejected},
	{`sum(count_over_time({app="fabric_manager_monitor"} |= "fm_switch_offline" [5m]))`, `sum(count_over_time({app="fabric_manager_monitor"} |= "fm_switch_offline" [5m0s]))`, rejected},
	{`sum(count_over_time({data_type="syslog", severity=~"err|crit|alert|emerg"}[2m])) by (hostname)`, `sum(count_over_time({data_type="syslog", severity=~"err|crit|alert|emerg"} [2m0s])) by (hostname)`, `sum(count_over_time({data_type="syslog", severity=~"err|crit|alert|emerg"}[2m0s])) by (hostname)`},
	{`sum(count_over_time({data_type="syslog", severity=~"err|crit|alert|emerg"}[1m0s])) by (hostname)`, `sum(count_over_time({data_type="syslog", severity=~"err|crit|alert|emerg"} [1m0s])) by (hostname)`, `sum(count_over_time({data_type="syslog", severity=~"err|crit|alert|emerg"}[1m0s])) by (hostname)`},
	{`sum(count_over_time({data_type="redfish_event"} |= "CabinetLeakDetected" | json [5m])) by (Context)`, `sum(count_over_time({data_type="redfish_event"} |= "CabinetLeakDetected" | json [5m0s])) by (Context)`, rejected},
	{`sum(count_over_time({data_type="syslog"}[15m])) by (hostname)`, `sum(count_over_time({data_type="syslog"} [15m0s])) by (hostname)`, `sum(count_over_time({data_type="syslog"}[15m0s])) by (hostname)`},
	{`sum(count_over_time({data_type="syslog"}[3601s]))`, `sum(count_over_time({data_type="syslog"} [1h0m1s]))`, `sum(count_over_time({data_type="syslog"}[1h0m1s]))`},
	{`cray_telemetry_temperature > 85`, rejected, `cray_telemetry_temperature > 85`},
	{`max_over_time(cray_telemetry_temperature[10m])`, rejected, `max_over_time(cray_telemetry_temperature[10m0s])`},
	{`cray_telemetry_humidity`, rejected, `cray_telemetry_humidity`},
	{`cray_telemetry_humidity{xname="x1000c0"}`, rejected, `cray_telemetry_humidity{xname="x1000c0"}`},
	{`avg(cray_telemetry_temperature)`, rejected, `avg(cray_telemetry_temperature)`},
	{`max(cray_telemetry_temperature)`, rejected, `max(cray_telemetry_temperature)`},
	{`sum(up)`, rejected, `sum(up)`},
	{`max(shastamon_slo_burn_rate) by (rule) > 1`, rejected, `max(shastamon_slo_burn_rate) by (rule) > 1`},
	{`max(shastamon_breaker_state) by (dependency) >= 2`, rejected, `max(shastamon_breaker_state) by (dependency) >= 2`},
	{`sum(increase(shastamon_dlq_records_total[10m])) by (topic) > 0`, rejected, `sum(increase(shastamon_dlq_records_total[10m0s])) by (topic) > 0`},
	{`sum(increase(shastamon_stage_errors_total[5m])) by (stage) > 0`, rejected, `sum(increase(shastamon_stage_errors_total[5m0s])) by (stage) > 0`},
	{`sum(increase(shastamon_query_slow_total[10m])) by (engine) > 0`, rejected, `sum(increase(shastamon_query_slow_total[10m0s])) by (engine) > 0`},
	{`sum(increase(shastamon_query_limit_breached_total[10m])) by (reason) > 0`, rejected, `sum(increase(shastamon_query_limit_breached_total[10m0s])) by (reason) > 0`},
	{`max(shastamon_wal_degraded) by (store) > 0`, rejected, `max(shastamon_wal_degraded) by (store) > 0`},
	{`sum(increase(shastamon_query_frontend_queue_rejected_total[5m])) > 0`, rejected, `sum(increase(shastamon_query_frontend_queue_rejected_total[5m0s])) > 0`},
	{`sum(increase(shastamon_query_result_cache_evictions_total[10m])) > 64`, rejected, `sum(increase(shastamon_query_result_cache_evictions_total[10m0s])) > 64`},
	{`max(shastamon_anomaly_detector_saturated) by (rule) > 0`, rejected, `max(shastamon_anomaly_detector_saturated) by (rule) > 0`},
	{`sum(increase(shastamon_templates_novel_total[10m])) > 24`, rejected, `sum(increase(shastamon_templates_novel_total[10m0s])) > 24`},
	{`max(shastamon_scrape_staleness_seconds) by (target) > 120`, rejected, `max(shastamon_scrape_staleness_seconds) by (target) > 120`},
	{`sum(shastamon_kafka_produced_total) by (topic)`, rejected, `sum(shastamon_kafka_produced_total) by (topic)`},
	{`sum(shastamon_ruler_alerts_fired_total) by (rule)`, rejected, `sum(shastamon_ruler_alerts_fired_total) by (rule)`},
	{`sum(shastamon_alertmanager_notifications_total) by (receiver, outcome)`, rejected, `sum(shastamon_alertmanager_notifications_total) by (receiver, outcome)`},
	{`sum(shastamon_detection_latency_seconds_count) by (rule)`, rejected, `sum(shastamon_detection_latency_seconds_count) by (rule)`},
	{`sum(shastamon_detection_latency_seconds_sum) by (rule)`, rejected, `sum(shastamon_detection_latency_seconds_sum) by (rule)`},
	{`max(shastamon_slo_burn_rate) by (rule)`, rejected, `max(shastamon_slo_burn_rate) by (rule)`},
	{`sum(shastamon_slo_events_total{outcome="breached"}) by (rule)`, rejected, `sum(shastamon_slo_events_total{outcome="breached"}) by (rule)`},
	{`max(shastamon_breaker_state) by (dependency)`, rejected, `max(shastamon_breaker_state) by (dependency)`},
	{`max(shastamon_scrape_staleness_seconds) by (target)`, rejected, `max(shastamon_scrape_staleness_seconds) by (target)`},
	{`histogram_quantile(0.95, sum(rate(shastamon_query_duration_seconds_bucket[5m])) by (le, engine))`, rejected, rejected},
	{`sum(increase(shastamon_query_bytes_processed_sum[10m]))`, rejected, `sum(increase(shastamon_query_bytes_processed_sum[10m0s]))`},
	{`sum(rate(shastamon_loki_chunk_cache_requests_total{result="hit"}[10m])) / sum(rate(shastamon_loki_chunk_cache_requests_total[10m]))`, rejected, rejected},
	{`topk(10, sum(increase(shastamon_query_slow_total[1h])) by (engine))`, rejected, rejected},
	{`sum(rate(shastamon_query_result_cache_hits_total[10m])) / (sum(rate(shastamon_query_result_cache_hits_total[10m])) + sum(rate(shastamon_query_result_cache_misses_total[10m])))`, rejected, rejected},
	{`max(shastamon_query_frontend_queue_depth)`, rejected, `max(shastamon_query_frontend_queue_depth)`},
	{`max(shastamon_anomaly_score) by (rule)`, rejected, `max(shastamon_anomaly_score) by (rule)`},
	{`sum(increase(shastamon_anomaly_detections_total[10m])) by (rule)`, rejected, `sum(increase(shastamon_anomaly_detections_total[10m0s])) by (rule)`},
	{`sum(increase(shastamon_rule_eval_seconds_sum[10m])) by (rule)`, rejected, `sum(increase(shastamon_rule_eval_seconds_sum[10m0s])) by (rule)`},
	{`max(shastamon_templates_active)`, rejected, `max(shastamon_templates_active)`},
	{`topk(10, sum(increase(shastamon_templates_lines_total[1h])) by (template))`, rejected, rejected},
	{`count_over_time({cluster="c0"}[5m])`, `count_over_time({cluster="c0"} [5m0s])`, `count_over_time({cluster="c0"}[5m0s])`},
	{`sum(count_over_time({}[5m]))`, `sum(count_over_time({} [5m0s]))`, rejected},
	{`bytes_over_time({app="a3"}[10m])`, `bytes_over_time({app="a3"} [10m0s])`, rejected},
	{`sum(bytes_over_time({}[2m]))`, `sum(bytes_over_time({} [2m0s]))`, rejected},
	{`max_over_time({cluster="c1"} | logfmt | unwrap v [5m])`, `max_over_time({cluster="c1"} | logfmt | unwrap v [5m0s])`, rejected},
	{`min_over_time({cluster="c1"} | logfmt | unwrap v [5m])`, `min_over_time({cluster="c1"} | logfmt | unwrap v [5m0s])`, rejected},
	{`max(max_over_time({} | logfmt | unwrap v [7m]))`, `max(max_over_time({} | logfmt | unwrap v [7m0s]))`, rejected},
	{`sum_over_time({cluster="c1"} | logfmt | unwrap v [5m])`, `sum_over_time({cluster="c1"} | logfmt | unwrap v [5m0s])`, rejected},
	{`sum(sum_over_time({} | logfmt | unwrap v [5m]))`, `sum(sum_over_time({} | logfmt | unwrap v [5m0s]))`, rejected},
	{`rate({cluster="c0"}[5m])`, `rate({cluster="c0"} [5m0s])`, `rate({cluster="c0"}[5m0s])`},
	{`avg(count_over_time({}[5m]))`, `avg(count_over_time({} [5m0s]))`, rejected},
	{`sum(count_over_time({}[5m])) > 40`, `sum(count_over_time({} [5m0s])) > 40`, rejected},
	{`node_temp_celsius`, rejected, `node_temp_celsius`},
	{`rate(node_net_bytes_total[5m])`, rejected, `rate(node_net_bytes_total[5m0s])`},
	{`sum(rate(node_net_bytes_total[5m]))`, rejected, `sum(rate(node_net_bytes_total[5m0s]))`},
	{`max_over_time(node_temp_celsius[10m])`, rejected, `max_over_time(node_temp_celsius[10m0s])`},
	{`avg(node_temp_celsius) by (xname)`, rejected, `avg(node_temp_celsius) by (xname)`},
	{`node_temp_celsius > 75`, rejected, `node_temp_celsius > 75`},
	{`{a="x\.y"}`, `{a="x\\.y"}`, rejected},
	{`{a="x\ny"}`, `{a="x\ny"}`, rejected},
	{`{a="x\ty"}`, `{a="x\ty"}`, rejected},
	{`{a="x\\y"}`, `{a="x\\y"}`, rejected},
	{`{a="x\"y"}`, `{a="x\"y"}`, rejected},
	{`{a='x\'y'}`, `{a="x'y"}`, rejected},
	{"{a=`x\\.y`}", `{a="x\\.y"}`, rejected},
	{`{a="x\qy"}`, `{a="x\\qy"}`, rejected},
	{`up{a=~"x\.y"}`, rejected, `up{a=~"x.y"}`},
	{`up{a="x\ny"}`, rejected, `up{a="xny"}`},
	{`up{a="x\ty"}`, rejected, `up{a="xty"}`},
	{`up{a="x\\y"}`, rejected, `up{a="x\\y"}`},
	{`up{a="x\"y"}`, rejected, `up{a="x\"y"}`},
	{`up{a='x\'y'}`, rejected, `up{a="x'y"}`},
	{"up{a=`raw\\n`}", rejected, rejected},
	{`up{a="é"}`, rejected, `up{a="é"}`},
	{`up{a="unterminated}`, rejected, rejected},
	{`up:rate5m`, rejected, `up:rate5m`},
	{`job:up:sum{a="b"}`, rejected, `job:up:sum{a="b"}`},
	{`:up`, rejected, `:up`},
	{`{a:b="c"}`, rejected, rejected},
	{`sum by (a:b) (up)`, rejected, `sum(up) by (a:b)`},
	{`{a="b",}`, rejected, rejected},
	{`{a="b" c="d"}`, rejected, rejected},
	{`{a="b",,c="d"}`, rejected, rejected},
	{`up{a="b",}`, rejected, `up{a="b"}`},
	{`up{a="b" c="d"}`, rejected, `up{a="b", c="d"}`},
	{`up{,}`, rejected, rejected},
	{`{}`, `{}`, rejected},
	{`up{}`, rejected, `up`},
	{`{a=}`, rejected, rejected},
	{`count_over_time({a="b"}[60])`, `count_over_time({a="b"} [1m0s])`, rejected},
	{`rate(up[60])`, rejected, rejected},
	{`count_over_time({a="b"}[1d12h])`, `count_over_time({a="b"} [36h0m0s])`, rejected},
	{`rate(up[1d12h])`, rejected, rejected},
	{`rate(up[1w])`, rejected, `rate(up[168h0m0s])`},
	{`count_over_time({a="b"}[2d])`, `count_over_time({a="b"} [48h0m0s])`, `count_over_time({a="b"}[48h0m0s])`},
	{`count_over_time({a="b"}[500ms])`, `count_over_time({a="b"} [500ms])`, `count_over_time({a="b"}[500ms])`},
	{`rate(up[500ms])`, rejected, `rate(up[500ms])`},
	{`count_over_time({a="b"}[10us])`, `count_over_time({a="b"} [10µs])`, rejected},
	{`rate(up[10us])`, rejected, rejected},
	{`count_over_time({a="b"}[100ns])`, `count_over_time({a="b"} [100ns])`, rejected},
	{`rate(up[100ns])`, rejected, rejected},
	{`rate(up[1.5m])`, rejected, `rate(up[1m30s])`},
	{`rate(up[xx])`, rejected, rejected},
	{`count_over_time({a="b"}[1s5])`, rejected, rejected},
	{`count_over_time({a="b"})`, rejected, rejected},
	{`up > 1e3`, rejected, rejected},
	{`up > .5`, rejected, `up > 0.5`},
	{`up > 0.5`, rejected, `up > 0.5`},
	{`up > .`, rejected, rejected},
	{`rate({a="b"}[5m]) > .5`, `rate({a="b"} [5m0s]) > 0.5`, `rate({a="b"}[5m0s]) > 0.5`},
	{`count_over_time({a="b"}[5m]) > 1e3`, rejected, rejected},
	{`up > 1000000`, rejected, `up > 1e+06`},
	{`count_over_time({a="b"}[5m]) > 1000000`, `count_over_time({a="b"} [5m0s]) > 1e+06`, `count_over_time({a="b"}[5m0s]) > 1e+06`},
	{`up > 0.00001`, rejected, `up > 1e-05`},
	{`up > 5m`, rejected, rejected},
	{`1 + 2`, rejected, `1 + 2`},
	{`5`, rejected, `5`},
	{`5 > 4`, rejected, rejected},
	{`up + down`, rejected, rejected},
	{`up * 2 + 1`, rejected, `up * 2 + 1`},
	{`2 * (up + 1)`, rejected, `2 * up + 1`},
	{`2 * up + 1`, rejected, `2 * up + 1`},
	{`1 - (up - 1)`, rejected, `1 - up - 1`},
	{`1 - up - 1`, rejected, `1 - up - 1`},
	{`(up + 1) * 2`, rejected, `up + 1 * 2`},
	{`(up > 1) * 2`, rejected, `up > 1 * 2`},
	{`(up)`, rejected, `up`},
	{`(count_over_time({a="b"}[5m]))`, rejected, `count_over_time({a="b"}[5m0s])`},
	{`count_over_time({a="b"}[5m]) * 2`, rejected, `count_over_time({a="b"}[5m0s]) * 2`},
	{`count_over_time({a="b"}[5m]) / 60 > 1`, rejected, `count_over_time({a="b"}[5m0s]) / 60 > 1`},
	{`2 > count_over_time({a="b"}[5m])`, rejected, `2 > count_over_time({a="b"}[5m0s])`},
	{`2 > up`, rejected, `2 > up`},
	{`sum(count_over_time({a="b"}[5m]) > 1)`, rejected, `sum(count_over_time({a="b"}[5m0s]) > 1)`},
	{`sum(up > 1)`, rejected, `sum(up > 1)`},
	{`topk(2, up)`, rejected, rejected},
	{`bottomk(1, rate(up[5m]))`, rejected, rejected},
	{`topk(2, count_over_time({a="b"}[5m]))`, `topk(2, count_over_time({a="b"} [5m0s]))`, rejected},
	{`topk(0, up)`, rejected, rejected},
	{`topk(up)`, rejected, rejected},
	{`topk`, rejected, `topk`},
	{`topk{a="b"}`, rejected, `topk{a="b"}`},
	{`up{a="b"} # comment`, rejected, rejected},
	{`up != 1`, rejected, `up != 1`},
	{`up == 1`, rejected, `up == 1`},
	{`!up`, rejected, rejected},
	{`up > -1`, rejected, rejected},
	{`{a="b"} |= "x" != "y" |~ "z" !~ "w"`, `{a="b"} |= "x" != "y" |~ "z" !~ "w"`, rejected},
	{`{a="b"} | json | v > 1h`, `{a="b"} | json | v > 3600`, rejected},
	{`{a="b"} | logfmt | v > 1ns`, `{a="b"} | logfmt | v > 1e-09`, rejected},
	{`{a="b"} | logfmt | v >= 1000000`, `{a="b"} | logfmt | v >= 1e+06`, rejected},
	{`{a="b"} | logfmt | v = 5`, `{a="b"} | logfmt | v == 5`, rejected},
	{`{a="b"} | logfmt | v = "5"`, `{a="b"} | logfmt | v="5"`, rejected},
	{`{a="b"} |~ "\d+"`, `{a="b"} |~ "\\d+"`, rejected},
	{`{a="b"} |~ "\\d+"`, `{a="b"} |~ "\\d+"`, rejected},
	{`{a="b"} |= "x\"y"`, `{a="b"} |= "x\"y"`, rejected},
	{`{a="b"} | line_format "{{.a}}\n"`, `{a="b"} | line_format "{{.a}}\n"`, rejected},
	{`{a="b"} | label_format x=y`, `{a="b"} | label_format x=y`, rejected},
	{`{a="b"} | pattern "<a> <b>"`, `{a="b"} | pattern "<a> <b>"`, rejected},
	{`{a="b"} | regexp "(?P<n>\\d+)"`, `{a="b"} | regexp "(?P<n>\\d+)"`, rejected},
	{`{a="b"} |= "x" > 5`, rejected, rejected},
	{`sum without (a) (up)`, rejected, `sum(up) without (a)`},
	{`sum without (a) (count_over_time({a="b"}[1m]))`, `sum(count_over_time({a="b"} [1m0s])) without (a)`, `sum(count_over_time({a="b"}[1m0s])) without (a)`},
	{`sum(up) by (a,)`, rejected, rejected},
	{`sum(up) by ()`, rejected, rejected},
	{`sum by (a) (up) by (b)`, rejected, rejected},
	{`sum by (a) (up)`, rejected, `sum(up) by (a)`},
	{`up[5m]`, rejected, rejected},
	{`rate(up[5m] )`, rejected, `rate(up[5m0s])`},
	{`absent(up)`, rejected, `absent(up)`},
	{`absent({a="b"})`, rejected, `absent({a="b"})`},
	{`absent_over_time({a="b"}[5m])`, `absent_over_time({a="b"} [5m0s])`, rejected},
	{`count_over_time({a="b"} | unwrap x [5m])`, rejected, rejected},
	{`sum_over_time({a="b"} [5m])`, rejected, `sum_over_time({a="b"}[5m0s])`},
	{`sum(`, rejected, rejected},
	{`sum(count_over_time({a="b"}[1m])`, rejected, rejected},
	{`nosuchfunc({a="b"}[1m])`, rejected, rejected},
	{`{a="b"} trailing`, rejected, rejected},
	{`up{job="n"} extra`, rejected, rejected},
	{`up >`, rejected, rejected},
	{`count_over_time({a="b"}[1..5d])`, `count_over_time({a="b"} [24h0m0s])`, rejected},
	{`up{a="x\qy"}`, rejected, `up{a="xqy"}`},
	{`up{a="x\qy"} > 1d`, rejected, rejected},
	{`sum(rate(up[5m])) by (job) / 60 > 1`, rejected, `sum(rate(up[5m0s])) by (job) / 60 > 1`},
	{`1 / up`, rejected, `1 / up`},
	{"up\t>\n1", rejected, `up > 1`},
	{"{a=\"b\"} |= `raw\\d`", `{a="b"} |= "raw\\d"`, rejected},
	{``, rejected, rejected},
}

// The reasons a corpus row may differ from its capture: the additions
// that one metric layer under both languages implies, and the rendering
// and escape bugs it fixed.
const (
	whyTopk          = "PromQL gains topk/bottomk: the one aggregation parser reads their k"
	whyTopkKeyword   = "PromQL gains topk/bottomk, so they are aggregation keywords, not metric names"
	whyEscape        = "PromQL strings take LogQL's escape rule: \\n and \\t decode, an unknown escape keeps its backslash"
	whyBacktick      = "PromQL gains backtick strings from the one lexer"
	whyColon         = "LogQL identifiers may contain ':' (the one lexer reads PromQL's metric names)"
	whyDayChain      = "PromQL gains d/w duration chains from the one duration parser"
	whyNanoUnits     = "PromQL gains LogQL's us/ns duration units from the one lexer"
	whyMicroRender   = "String() renders microseconds as us, which the lexer reads, not as µs"
	whyExponent      = "String() renders numbers without an exponent, which the lexer does not read"
	whyParens        = "String() keeps the parentheses precedence needs: dropping them made two queries share a cache key"
	whyLogParens     = "LogQL gains parenthesised metric expressions"
	whyLogScalar     = "LogQL gains scalar arithmetic"
	whyLogScalarLeft = "LogQL gains scalar-left comparisons"
	whyLogCmpInAgg   = "LogQL gains comparisons inside aggregations"
	whyWholeNumber   = "a d/w count must be one number: LogQL read 1..5d as 1d from the prefix of its number"
)

// grammarChanges are the corpus rows that differ from the capture: the
// language, the query, what it gives now and why.
var grammarChanges = []struct{ lang, q, now, why string }{
	{"promql", `topk(10, sum(increase(shastamon_query_slow_total[1h])) by (engine))`, `topk(10, sum(increase(shastamon_query_slow_total[1h0m0s])) by (engine))`, whyTopk},
	{"promql", `topk(10, sum(increase(shastamon_templates_lines_total[1h])) by (template))`, `topk(10, sum(increase(shastamon_templates_lines_total[1h0m0s])) by (template))`, whyTopk},
	{"promql", `up{a=~"x\.y"}`, `up{a=~"x\\.y"}`, whyEscape},
	{"promql", `up{a="x\ny"}`, `up{a="x\ny"}`, whyEscape},
	{"promql", `up{a="x\ty"}`, `up{a="x\ty"}`, whyEscape},
	{"promql", "up{a=`raw\\n`}", `up{a="raw\\n"}`, whyBacktick},
	{"logql", `{a:b="c"}`, `{a:b="c"}`, whyColon},
	{"promql", `count_over_time({a="b"}[1d12h])`, `count_over_time({a="b"}[36h0m0s])`, whyDayChain},
	{"promql", `rate(up[1d12h])`, `rate(up[36h0m0s])`, whyDayChain},
	{"logql", `count_over_time({a="b"}[10us])`, `count_over_time({a="b"} [10us])`, whyMicroRender},
	{"promql", `count_over_time({a="b"}[10us])`, `count_over_time({a="b"}[10us])`, whyNanoUnits},
	{"promql", `rate(up[10us])`, `rate(up[10us])`, whyNanoUnits},
	{"promql", `count_over_time({a="b"}[100ns])`, `count_over_time({a="b"}[100ns])`, whyNanoUnits},
	{"promql", `rate(up[100ns])`, `rate(up[100ns])`, whyNanoUnits},
	{"promql", `up > 1000000`, `up > 1000000`, whyExponent},
	{"logql", `count_over_time({a="b"}[5m]) > 1000000`, `count_over_time({a="b"} [5m0s]) > 1000000`, whyExponent},
	{"promql", `count_over_time({a="b"}[5m]) > 1000000`, `count_over_time({a="b"}[5m0s]) > 1000000`, whyExponent},
	{"promql", `up > 0.00001`, `up > 0.00001`, whyExponent},
	{"logql", `1 + 2`, `1 + 2`, whyLogScalar},
	{"logql", `5`, `5`, whyLogScalar},
	{"promql", `2 * (up + 1)`, `2 * (up + 1)`, whyParens},
	{"promql", `1 - (up - 1)`, `1 - (up - 1)`, whyParens},
	{"promql", `(up + 1) * 2`, `(up + 1) * 2`, whyParens},
	{"promql", `(up > 1) * 2`, `(up > 1) * 2`, whyParens},
	{"logql", `(count_over_time({a="b"}[5m]))`, `count_over_time({a="b"} [5m0s])`, whyLogParens},
	{"logql", `count_over_time({a="b"}[5m]) * 2`, `count_over_time({a="b"} [5m0s]) * 2`, whyLogScalar},
	{"logql", `count_over_time({a="b"}[5m]) / 60 > 1`, `count_over_time({a="b"} [5m0s]) / 60 > 1`, whyLogScalar},
	{"logql", `2 > count_over_time({a="b"}[5m])`, `2 > count_over_time({a="b"} [5m0s])`, whyLogScalarLeft},
	{"logql", `sum(count_over_time({a="b"}[5m]) > 1)`, `sum(count_over_time({a="b"} [5m0s]) > 1)`, whyLogCmpInAgg},
	{"promql", `topk(2, up)`, `topk(2, up)`, whyTopk},
	{"promql", `bottomk(1, rate(up[5m]))`, `bottomk(1, rate(up[5m0s]))`, whyTopk},
	{"promql", `topk(2, count_over_time({a="b"}[5m]))`, `topk(2, count_over_time({a="b"}[5m0s]))`, whyTopk},
	{"promql", `topk`, rejected, whyTopkKeyword},
	{"promql", `topk{a="b"}`, rejected, whyTopkKeyword},
	{"logql", `{a="b"} | logfmt | v > 1ns`, `{a="b"} | logfmt | v > 0.000000001`, whyExponent},
	{"logql", `{a="b"} | logfmt | v >= 1000000`, `{a="b"} | logfmt | v >= 1000000`, whyExponent},
	{"logql", `count_over_time({a="b"}[1..5d])`, rejected, whyWholeNumber},
	{"promql", `up{a="x\qy"}`, `up{a="x\\qy"}`, whyEscape},
}

// TestGrammarCorpus checks every corpus query in both languages against
// its capture, or its listed change, and that every listed change is a
// real difference of a corpus row.
func TestGrammarCorpus(t *testing.T) {
	type key struct{ lang, q string }
	changes := map[key]string{}
	for _, c := range grammarChanges {
		changes[key{c.lang, c.q}] = c.now
	}
	for _, r := range grammarCorpus {
		for _, l := range []struct {
			name, was string
			parse     func(string) (frontend.Expr, error)
		}{{"logql", r.logql, logql.ParseExpr}, {"promql", r.promql, promql.Parse}} {
			want := l.was
			if now, ok := changes[key{l.name, r.q}]; ok {
				if now == l.was {
					t.Errorf("%s %q: listed change gives the captured %q", l.name, r.q, now)
				}
				want = now
				delete(changes, key{l.name, r.q})
			}
			got := rejected
			if e, err := l.parse(r.q); err == nil {
				got = e.String()
			}
			if got != want {
				t.Errorf("%s %q: got %q, want %q", l.name, r.q, got, want)
			}
		}
	}
	for k := range changes {
		t.Errorf("%s %q: listed change is not a corpus row", k.lang, k.q)
	}
}

// FuzzParseRoundTrip parses arbitrary input as LogQL and as PromQL,
// seeded from the corpus: neither parser may panic, and every accepted
// query's String() must parse back in the same language to the same
// tree and render to itself, since the results cache keys by that
// string.
func FuzzParseRoundTrip(f *testing.F) {
	for _, r := range grammarCorpus {
		f.Add(r.q)
	}
	f.Fuzz(func(t *testing.T, q string) {
		for _, l := range []struct {
			name  string
			parse func(string) (frontend.Expr, error)
		}{{"logql", logql.ParseExpr}, {"promql", promql.Parse}} {
			e, err := l.parse(q)
			if err != nil {
				continue
			}
			s := e.String()
			again, err := l.parse(s)
			if err != nil {
				t.Fatalf("%s %q renders %q, which does not parse: %v", l.name, q, s, err)
			}
			if s2 := again.String(); s2 != s {
				t.Fatalf("%s %q renders %q, which renders %q", l.name, q, s, s2)
			}
			if a, b := shape(e), shape(again); a != b {
				t.Fatalf("%s %q is %s, but its rendering %q parses to %s", l.name, q, a, s, b)
			}
		}
	})
}

// shape renders the shared nodes of e fully parenthesised, so that two
// trees that group their operators differently never render alike.
func shape(e frontend.Expr) string {
	switch ex := e.(type) {
	case *frontend.BinExpr:
		return "(" + shape(ex.LHS) + " " + ex.Op + " " + shape(ex.RHS) + ")"
	case *frontend.AggExpr:
		return fmt.Sprintf("%s[%d %q %v](%s)", ex.Op, ex.Param, ex.Grouping, ex.Without, shape(ex.Inner))
	}
	return e.String()
}
