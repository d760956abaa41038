package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"shastamon/internal/frontend"
	"shastamon/internal/labels"
	"shastamon/internal/loki"
	"shastamon/internal/omni"
	"shastamon/internal/ruler"
	"shastamon/internal/stats"
	"shastamon/internal/tenant"
)

// TestChaosNoisyNeighborTenant is the multi-tenancy acceptance scenario:
// a flooding tenant blows through its own stream quota, ingest rate and
// query-concurrency slot while the quiet default tenant's leak alert
// still fires on the exact tick cadence of the single-tenant case study
// — the noisy neighbor pays for its own noise and nobody else's SLO
// moves. Runs under the chaos soak (-count=2 -shuffle=on), so everything
// here is deterministic against a fresh pipeline.
func TestChaosNoisyNeighborTenant(t *testing.T) {
	p := newPipeline(t, Options{
		LogRules: []ruler.Rule{leakRule},
		Warehouse: omni.Config{
			Frontend: frontend.Config{MaxConcurrent: 8, MaxQueueDepth: -1},
			TenantOverrides: &tenant.Overrides{PerTenant: map[string]tenant.Limits{
				"flood": {
					MaxStreams:          8,
					IngestRateBytes:     4096,
					IngestBurstBytes:    4096,
					MaxQueryConcurrency: 1,
				},
			}},
		},
	})
	t0 := time.Date(2022, 3, 3, 1, 46, 0, 0, time.UTC)
	mustTick(t, p, t0)

	// The flood: far more streams than the tenant's quota and far more
	// bytes than its token bucket holds. Every shed error is the flood
	// tenant's own; none may surface to other tenants.
	flood := func() (rateLimited, overQuota int) {
		line := strings.Repeat("E", 256)
		for i := 0; i < 200; i++ {
			err := p.Warehouse.IngestLogsTenant("flood", []loki.PushStream{{
				Labels:  labels.FromStrings("app", "floodgen", "stream", fmt.Sprintf("%d", i%32)),
				Entries: []loki.Entry{{Timestamp: t0.UnixNano() + int64(i), Line: line}},
			}})
			switch {
			case errors.Is(err, loki.ErrRateLimited):
				rateLimited++
			case errors.Is(err, loki.ErrMaxStreams):
				overQuota++
			case err != nil:
				t.Fatalf("flood ingest: %v", err)
			}
		}
		return
	}
	rateLimited, overQuota := flood()
	if rateLimited == 0 {
		t.Fatal("flood tenant was never rate limited")
	}
	if overQuota == 0 {
		t.Fatal("flood tenant never hit its stream quota")
	}

	// The flood tenant saturates its single query slot; its next query
	// sheds with ErrQueueFull while the quiet tenant's identical query
	// admits freely on the same engine.
	floodCtx := tenant.WithID(context.Background(), "flood")
	block := make(chan struct{})
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := p.Warehouse.Frontend.QueryRange(floodCtx, frontend.Request{
			Engine: "logql", Query: "blocker", Start: 0, End: 0, Step: 1,
			Eval: func(ctx context.Context, start, end int64, shard int) (frontend.Matrix, error) {
				close(started)
				<-block
				return frontend.Matrix{}, nil
			},
		})
		done <- err
	}()
	<-started
	q := `count_over_time({app="floodgen"}[1m])`
	if _, err := p.Warehouse.LogQL.QueryRangeContext(floodCtx, q,
		t0.UnixNano(), t0.Add(time.Minute).UnixNano(), time.Minute); !errors.Is(err, stats.ErrQueueFull) {
		t.Fatalf("flood tenant behind its own slot: %v, want ErrQueueFull", err)
	}
	if _, err := p.Warehouse.LogQL.QueryRangeContext(context.Background(), q,
		t0.UnixNano(), t0.Add(time.Minute).UnixNano(), time.Minute); err != nil {
		t.Fatalf("quiet tenant shed by the flood's queue: %v", err)
	}
	close(block)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for _, r := range p.Warehouse.Frontend.RejectedByTenant() {
		if r.Tenant != "flood" {
			t.Fatalf("queue sheds charged to tenant %q: %+v", r.Tenant, r)
		}
	}

	// The quiet tenant's detection latency: the leak alert fires on the
	// same tick cadence as the single-tenant case study (event, +61s,
	// +62s), with the flood still hammering between ticks.
	leakTime := t0.Add(2 * time.Minute)
	if err := p.Cluster.InjectLeak("x1203c1b0", "A", "Front", leakTime); err != nil {
		t.Fatal(err)
	}
	mustTick(t, p, leakTime)
	flood()
	mustTick(t, p, leakTime.Add(61*time.Second))
	flood()
	mustTick(t, p, leakTime.Add(62*time.Second))
	if slackTitles(p)["PerlmutterCabinetLeak"] == 0 {
		t.Fatalf("quiet tenant's leak alert missed its SLO; titles = %v", slackTitles(p))
	}

	// Zero cross-contamination, both directions: the default tenant never
	// sees flood streams, and the flood tenant never sees the cluster's
	// telemetry. The flood holds exactly its quota of streams.
	end := leakTime.Add(2 * time.Minute).UnixNano()
	if streams, _, err := p.Warehouse.QueryLogsContext(context.Background(),
		`{app="floodgen"}`, 0, end); err != nil || len(streams) != 0 {
		t.Fatalf("default tenant sees %d flood streams (err %v)", len(streams), err)
	}
	floodStreams, _, err := p.Warehouse.QueryLogsContext(floodCtx, `{app="floodgen"}`, 0, end)
	if err != nil {
		t.Fatal(err)
	}
	if len(floodStreams) != 8 {
		t.Fatalf("flood tenant holds %d streams, want exactly its quota of 8", len(floodStreams))
	}
	if streams, _, err := p.Warehouse.QueryLogsContext(floodCtx,
		`{data_type="redfish_event"}`, 0, end); err != nil || len(streams) != 0 {
		t.Fatalf("flood tenant sees %d cluster streams (err %v)", len(streams), err)
	}
}
