#!/bin/sh
# Repo verification gate: vet, the race-enabled test suite, and a chaos
# soak — the fault-injection tests repeated and shuffled to shake out
# order dependence in the recovery paths.
# Run before sending a change; CI runs the same commands.
set -eux

cd "$(dirname "$0")"

# Formatting is a gate, not a suggestion: gofmt -l prints offending
# files, so an empty result is the pass condition.
test -z "$(gofmt -l .)"

go vet ./...
go test -race ./...
go test -race -run Chaos -count=2 -shuffle=on ./internal/core/...

# Meta-alert smoke: break ServiceNow via chaos injection and prove the
# pipeline's own breaker-stuck-open / SLO-burn alerts reach the fake
# Slack sink through the normal Alertmanager path.
go test -race -run 'TestMetaAlert' -count=1 ./internal/core/

# Crash-recovery soak: the kill/replay e2e (SIGKILL-image snapshot,
# torn WAL tails, seeded chaos disk faults with the WAL-degraded
# meta-alert) repeated three times and shuffled, under the race
# detector — the durability paths must be order-independent.
go test -race -run 'TestCrashRecovery|TestWALDegraded' -count=3 -shuffle=on ./internal/omni/ ./internal/core/

# Durable-directory soak: the one crash-safety state machine
# (internal/wal) and its two bindings — the per-store durability suites,
# the crash-image table (the disk dies at every write and hooked operation
# of a fixed script; every image must recover with nothing acknowledged
# lost), the checkpoint policy tests and the disk-format pins — repeated,
# shuffled, on one and two cores.
GOMAXPROCS=1 go test -race -run 'TestDurable|TestTSDB|TestCrashImage|TestCheckpoint' -count=3 -shuffle=on ./internal/wal/ ./internal/loki/ ./internal/tsdb/
GOMAXPROCS=2 go test -race -run 'TestDurable|TestTSDB|TestCrashImage|TestCheckpoint' -count=3 -shuffle=on ./internal/wal/ ./internal/loki/ ./internal/tsdb/

# Fuzz smoke: ten seconds of each byte-facing reader of the durable
# directory (frame, record header + store codecs, checkpoint document +
# rows), of the query differential oracle (random LogQL/PromQL queries
# against a naive evaluator), of the shared query grammar's round trip
# (no panic; every accepted query's String() re-parses to the same tree
# and renders to itself, in both languages) and of the query API's
# time/step parameter parser, one target at a time. New corpus entries go
# to the build cache, not the tree; only a failing input is written under
# testdata/. The targets run worker pools per input, so their coverage is
# never exactly repeatable and the default minimizer would spend the
# whole budget re-running one input: it is turned off.
for spec in FuzzWALDecode:wal FuzzRecordDecode:wal FuzzCheckpointRows:wal FuzzQueryDifferential:frontend FuzzParseRoundTrip:frontend FuzzQueryParams:frontend; do
  target=${spec%%:*}
  go test -run '^$' -fuzz "^${target}\$" -fuzztime=10s -fuzzminimizetime=0 "./internal/${spec#*:}/"
done

# Tenant isolation suite: concurrent two-tenant pushes into shared lock
# stripes, exact quota/rate accounting, tenant-keyed frontend queues and
# cache, and the single-tenant golden-equality pins — all under the race
# detector. (The noisy-neighbor e2e also rides the Chaos soak above.)
go test -race -run 'TestTenant|TestDurableTenant|TestRateLimiter' -count=1 \
  ./internal/tenant/ ./internal/series/ ./internal/loki/ ./internal/tsdb/ ./internal/frontend/

# Series-registry soak: the one label index under both stores (stripes,
# get-or-create under quotas, selection, retention unlink, checkpoint
# freeze) and the store suites that lean on it hardest — concurrent
# pushers into shared stripes, exact caps, striping balance and the
# differential oracle against a naive model — repeated and shuffled on
# one, two and eight cores.
for procs in 1 2 8; do
  GOMAXPROCS=$procs go test -race -count=3 -shuffle=on ./internal/series/
  GOMAXPROCS=$procs go test -race -count=3 -shuffle=on \
    -run 'TestTenant|TestConcurrent|TestMaxStreams|TestSharded|TestDifferential' ./internal/loki/ ./internal/tsdb/
done

# Frontend golden-equality + concurrent-refresh soak: split/cached range
# results must be bit-identical to the monolithic evaluation, including
# under concurrent refresh with an eviction-squeezed cache, and both
# engines must equal the naive query oracle on every frontend path, with
# the race detector watching the cache and admission paths — repeated,
# shuffled, on one, two and eight cores.
for procs in 1 2 8; do
  GOMAXPROCS=$procs go test -race -run 'TestFrontendGolden|TestFrontendConcurrentRefreshSoak|FuzzQueryDifferential' \
    -count=3 -shuffle=on ./internal/frontend/ ./internal/logql/ ./internal/promql/
done

# Anomaly determinism soak: the streaming detectors and the Drain miner
# are driven purely by sample timestamps, so repeated shuffled runs under
# the race detector must reproduce identical verdicts — and the
# early-warning experiment must reproduce an identical alert timeline
# (TestEarlyWarnDeterministic runs the full predictive-vs-reactive race
# twice and compares reports byte-for-byte).
go test -race -count=3 -shuffle=on ./internal/anomaly/
go test -race -run 'TestEarlyWarn' -count=1 ./internal/experiments/

# Rule-evaluator soak: the one alert state machine under both bindings,
# repeated and shuffled under the race detector on one and two cores. The
# suite is driven by an injected clock and has no sleeps, so scheduling
# must not change a verdict.
GOMAXPROCS=1 go test -race -count=3 -shuffle=on ./internal/ruler/ ./internal/vmalert/
GOMAXPROCS=2 go test -race -count=3 -shuffle=on ./internal/ruler/ ./internal/vmalert/

# Dashboard drift check: the checked-in Grafana export must match what
# the generator produces today, so panel changes can't land without
# regenerating singlepane-dashboard.json.
DASHTMP=$(mktemp -d)
go build -o "$DASHTMP/singlepane" ./examples/singlepane
(cd "$DASHTMP" && ./singlepane > /dev/null)
diff "$DASHTMP/singlepane-dashboard.json" singlepane-dashboard.json
rm -rf "$DASHTMP"

# Metrics-docs lint: every shastamon_* family a live pipeline registers
# (and every built-in meta-rule) must have a row in the README tables.
go test -run 'TestMetricsDocumented' -count=1 ./internal/core/

# The gate's benchmark harness is a module of its own (bench/go.mod), so
# nothing above compiles it: vet and test it here, or an internal API
# change breaks the harness without anyone noticing (~8 s).
go -C bench vet ./...
go -C bench test ./...
