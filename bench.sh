#!/usr/bin/env bash
# bench.sh — run the ingest/query benchmark families tracked by the
# perf trajectory and write the parsed results to BENCH_ingest.json,
# plus the end-to-end detection-latency benchmark to BENCH_latency.json.
#
#   ./bench.sh          full run (-benchtime 1s), the numbers that go
#                       into EXPERIMENTS.md
#   ./bench.sh short    quick run (-benchtime 100x), a does-it-still-run
#                       smoke pass (it rewrites the tracked BENCH_*.json,
#                       which is why verify.sh no longer runs it)
#
# Families (see bench_test.go):
#   C1  BenchmarkOMNIIngestLogs / ...LogsParallel   msgs/s vs paper 400k/s
#       BenchmarkOMNIIngestLogsWAL                  same loop, WAL on: the
#                                                   durability overhead pair
#   C2  BenchmarkSustainedBytes                     MB/s vs 400 GB/day
#   C5  BenchmarkShardedIngest                      lock-stripe scaling
#       BenchmarkTenantIngest/{off,on}              single-tenant ingest
#                                                   with tenancy absent vs
#                                                   configured: the <5%
#                                                   overhead pair
#   E4  BenchmarkFig5Query                          leak query latency
#       BenchmarkFig5QueryRange/{mono,cold,warm}    the same query as a
#                                                   dashboard range panel:
#                                                   monolithic vs frontend
#                                                   split (cache off) vs
#                                                   primed results cache
#       QueryScaling/gomaxprocs={1,2,4,8}           split-parallel cold
#                                                   Fig5 across -cpu
#   E7  BenchmarkFig8Query                          switch pattern query
#       BenchmarkWALRecovery                        100k-entry WAL replay
#                                                   (ms/recovery, entries/s)
set -euo pipefail
cd "$(dirname "$0")"

MODE="${1:-full}"
case "$MODE" in
  short) BENCHTIME=100x RANGE_BENCHTIME=3x ;;
  full)  BENCHTIME=1s  RANGE_BENCHTIME=1s ;;
  *) echo "usage: $0 [short|full]" >&2; exit 2 ;;
esac

OUT=BENCH_ingest.json
RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

go test -run '^$' \
  -bench 'OMNIIngestLogs$|OMNIIngestLogsWAL$|OMNIIngestLogsParallel$|SustainedBytes$|ShardedIngest/|TenantIngest/|Fig5Query$|Fig8Query$|WALRecovery$' \
  -benchtime "$BENCHTIME" . | tee "$RAW"

# The query-frontend pair: monolithic vs frontend-split (cache off) vs
# warm results cache, on the default GOMAXPROCS.
go test -run '^$' -bench 'Fig5QueryRange/' -benchtime "$RANGE_BENCHTIME" . | tee -a "$RAW"

# QueryScaling series: the split-parallel cold path across GOMAXPROCS.
# Go appends -N to the bench name for every -cpu value except 1; rewrite
# both shapes to QueryScaling/gomaxprocs=N before the parser (which
# strips trailing -N suffixes) sees them.
go test -run '^$' -bench 'Fig5QueryRange/cold$' -benchtime "$RANGE_BENCHTIME" -cpu 1,2,4,8 . \
  | sed -E 's|^BenchmarkFig5QueryRange/cold-([0-9]+)\b|BenchmarkQueryScaling/gomaxprocs=\1|; s|^BenchmarkFig5QueryRange/cold\b|BenchmarkQueryScaling/gomaxprocs=1|' \
  | tee -a "$RAW"

awk -v mode="$MODE" '
BEGIN { n = 0 }
/^Benchmark/ {
  name = $1
  sub(/-[0-9]+$/, "", name)          # strip the -GOMAXPROCS suffix
  sub(/^Benchmark/, "", name)
  ns = ""; bpo = ""; apo = ""; mbs = ""; scan = ""; hit = ""; eps = ""; msr = ""
  for (i = 2; i < NF; i++) {
    if ($(i+1) == "ns/op")   ns  = $i
    if ($(i+1) == "B/op")    bpo = $i
    if ($(i+1) == "allocs/op") apo = $i
    if ($(i+1) == "MB/s")    mbs = $i
    if ($(i+1) == "bytes-scanned")   scan = $i
    if ($(i+1) == "cache-hit-ratio") hit  = $i
    if ($(i+1) == "entries/s")       eps  = $i
    if ($(i+1) == "ms/recovery")     msr  = $i
  }
  if (ns == "") next
  # msgs/s: ingest benches are one message per op, except ShardedIngest
  # which pushes the whole 4096-message corpus per op.
  msgs = ""
  if (name ~ /^OMNIIngestLogs/ || name == "SustainedBytes") msgs = 1e9 / ns
  if (name ~ /^ShardedIngest/) msgs = 4096 * 1e9 / ns
  if (name ~ /^TenantIngest/) msgs = 1e9 / ns
  line = sprintf("  {\"bench\": \"%s\", \"ns_per_op\": %s", name, ns)
  if (bpo != "")  line = line sprintf(", \"bytes_per_op\": %s", bpo)
  if (apo != "")  line = line sprintf(", \"allocs_per_op\": %s", apo)
  if (mbs != "")  line = line sprintf(", \"mb_per_s\": %s", mbs)
  if (msgs != "") line = line sprintf(", \"msgs_per_s\": %.0f", msgs)
  if (scan != "") line = line sprintf(", \"bytes_scanned_per_op\": %s", scan)
  if (hit != "")  line = line sprintf(", \"cache_hit_ratio\": %s", hit)
  if (eps != "")  line = line sprintf(", \"replay_entries_per_s\": %s", eps)
  if (msr != "")  line = line sprintf(", \"recovery_ms\": %s", msr)
  line = line "}"
  rows[n++] = line
}
END {
  printf "{\n\"mode\": \"%s\",\n\"results\": [\n", mode
  for (i = 0; i < n; i++) printf "%s%s\n", rows[i], (i < n-1 ? "," : "")
  print "]\n}"
}' "$RAW" > "$OUT"

echo "wrote $OUT"

# Detection latency (emit -> first delivery) p50/p95/max for the leak and
# switch-offline scenarios, measured on the simulated clock by the
# pipeline's own SLO tracker (internal/experiments.LatencyJSON). The
# artifact also embeds the early-warning race under "early_warning":
# per-cabinet drift-onset -> delivery seconds for the predictive roc
# rule vs the paper's static leak rule, with the p50 lead.
LATOUT=BENCH_latency.json
go run ./cmd/experiments -run latency_json -out "$LATOUT" > /dev/null
echo "wrote $LATOUT"
