package main

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"shastamon/internal/core"
	"shastamon/internal/loki"
	"shastamon/internal/shasta"
	"shastamon/internal/stats"
	"shastamon/internal/tenant"
)

func testPipeline(t *testing.T, opts core.Options) *core.Pipeline {
	t.Helper()
	if opts.Cluster.Name == "" {
		opts.Cluster = shasta.Config{
			Name: "perlmutter", Cabinets: []int{1002, 1203},
			ChassisPerCabinet: 2, BladesPerChassis: 1, NodesPerBMC: 1, SwitchesPerChassis: 8, Seed: 3,
		}
	}
	p, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func get(t *testing.T, mux *http.ServeMux, url string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, req)
	return rr
}

// Every query endpoint maps an engine-side error through the one
// stats.HTTPStatus: backpressure is 429, a deadline 504, anything else
// 500 — never the 400 that parse and parameter errors get. Each error is
// injected as the cancellation cause of the request context: that is how
// the tracker delivers timeout, byte-budget and kill, and every store
// and engine returns the cause once its context is done, so the handlers
// see the same value they would from a real fault.
func TestQueryErrorStatusOnEveryEndpoint(t *testing.T) {
	p := testPipeline(t, core.Options{})
	mux := newStatusMux(p, serverOpts{})
	endpoints := []string{
		`/loki/api/v1/query?query=count_over_time({app="x"}[5m])`,
		`/loki/api/v1/query_range?query={app="x"}`,
		`/loki/api/v1/query_range?query=count_over_time({app="x"}[5m])`,
		// Bare selectors: the cheapest PromQL node, one sample per series,
		// must notice a dead context like every other.
		`/api/v1/query?query=up`,
		`/api/v1/query_range?query=up`,
		`/query/logs?q={app="x"}`,
		`/query/metrics?q=up`,
	}
	cases := []struct {
		err  error
		want int
	}{
		{stats.ErrQueueFull, http.StatusTooManyRequests},
		{stats.ErrQueryTimeout, http.StatusGatewayTimeout},
		{stats.ErrMaxBytesScanned, http.StatusInternalServerError},
		{stats.ErrKilled, http.StatusInternalServerError},
		{errors.New("disk on fire"), http.StatusInternalServerError},
	}
	for _, url := range endpoints {
		if rr := get(t, mux, url, nil); rr.Code != http.StatusOK {
			t.Fatalf("%s without a fault: %d %s", url, rr.Code, rr.Body.String())
		}
		for _, c := range cases {
			ctx, cancel := context.WithCancelCause(context.Background())
			cancel(c.err)
			rr := httptest.NewRecorder()
			mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, url, nil).WithContext(ctx))
			if rr.Code != c.want || !strings.Contains(rr.Body.String(), c.err.Error()) {
				t.Errorf("%s failing with %q: %d %q, want %d naming the error",
					url, c.err, rr.Code, rr.Body.String(), c.want)
			}
		}
	}
}

func TestParseTimeParam(t *testing.T) {
	def := time.Unix(0, 42)
	if got, err := parseTimeParam("", def); err != nil || !got.Equal(def) {
		t.Fatalf("empty: %v %v", got, err)
	}
	if got, err := parseTimeParam("1500000000000000000", def); err != nil || got.UnixNano() != 1500000000000000000 {
		t.Fatalf("unix nanos: %v %v", got, err)
	}
	if got, err := parseTimeParam("2022-03-03T01:47:57Z", def); err != nil ||
		!got.Equal(time.Date(2022, 3, 3, 1, 47, 57, 0, time.UTC)) {
		t.Fatalf("rfc3339: %v %v", got, err)
	}
	if _, err := parseTimeParam("yesterday-ish", def); err == nil {
		t.Fatal("garbage accepted")
	}
}

// /query/logs: parse and validation errors are 400, success is 200, and
// engine errors route through stats.HTTPStatus instead of a blanket 400.
func TestQueryLogsStatusCodes(t *testing.T) {
	p := testPipeline(t, core.Options{})
	mustTickAt(t, p, time.Date(2022, 3, 3, 1, 46, 0, 0, time.UTC))
	mux := newStatusMux(p, serverOpts{})

	if rr := get(t, mux, `/query/logs?q={app="fabric_manager_monitor"}`, nil); rr.Code != http.StatusOK {
		t.Fatalf("valid query: %d %s", rr.Code, rr.Body.String())
	}
	if rr := get(t, mux, `/query/logs?q={app=`, nil); rr.Code != http.StatusBadRequest {
		t.Fatalf("parse error: %d, want 400", rr.Code)
	}
	// A metric expression is not a log selector: still a 400, pre-engine.
	if rr := get(t, mux, `/query/logs?q=count_over_time({app="x"}[5m])`, nil); rr.Code != http.StatusBadRequest {
		t.Fatalf("metric expr on log endpoint: %d, want 400", rr.Code)
	}
	if rr := get(t, mux, `/query/logs?q={app="x"}&start=not-a-time`, nil); rr.Code != http.StatusBadRequest ||
		!strings.Contains(rr.Body.String(), "start:") {
		t.Fatalf("bad start: %d %q, want 400 naming start", rr.Code, rr.Body.String())
	}
	if rr := get(t, mux, `/query/logs?q={app="x"}&end=2022-99-99`, nil); rr.Code != http.StatusBadRequest ||
		!strings.Contains(rr.Body.String(), "end:") {
		t.Fatalf("bad end: %d %q, want 400 naming end", rr.Code, rr.Body.String())
	}
	// Explicit RFC3339 and unix-nano bounds are accepted.
	if rr := get(t, mux, `/query/logs?q={app="x"}&start=2022-03-03T00:00:00Z&end=1646273280000000000`, nil); rr.Code != http.StatusOK {
		t.Fatalf("explicit window: %d %s", rr.Code, rr.Body.String())
	}
}

// An engine-side failure on /query/logs must not masquerade as a client
// error: a query killed by the timeout guardrail returns 504.
func TestQueryLogsEngineTimeoutIs504(t *testing.T) {
	p := testPipeline(t, core.Options{
		LokiLimits: loki.Limits{QueryTimeout: time.Nanosecond},
	})
	mustTickAt(t, p, time.Date(2022, 3, 3, 1, 46, 0, 0, time.UTC))
	mux := newStatusMux(p, serverOpts{})
	rr := get(t, mux, `/query/logs?q={app="fabric_manager_monitor"}`, nil)
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out query: %d %s, want 504", rr.Code, rr.Body.String())
	}
}

func TestQueryMetricsStatusCodes(t *testing.T) {
	p := testPipeline(t, core.Options{})
	mustTickAt(t, p, time.Date(2022, 3, 3, 1, 46, 0, 0, time.UTC))
	mux := newStatusMux(p, serverOpts{})
	if rr := get(t, mux, `/query/metrics?q=node_temp_celsius`, nil); rr.Code != http.StatusOK {
		t.Fatalf("valid query: %d %s", rr.Code, rr.Body.String())
	}
	if rr := get(t, mux, `/query/metrics?q=sum(`, nil); rr.Code != http.StatusBadRequest {
		t.Fatalf("parse error: %d, want 400", rr.Code)
	}
}

// /api/v1/heatmap rejects inverted and oversized grids with 400s that
// say what to fix, before any query work happens.
func TestHeatmapWindowValidation(t *testing.T) {
	p := testPipeline(t, core.Options{})
	mustTickAt(t, p, time.Date(2022, 3, 3, 1, 46, 0, 0, time.UTC))
	mux := newStatusMux(p, serverOpts{})

	if rr := get(t, mux, `/api/v1/heatmap?since=10m&step=2m`, nil); rr.Code != http.StatusOK {
		t.Fatalf("valid window: %d %s", rr.Code, rr.Body.String())
	}
	if rr := get(t, mux, `/api/v1/heatmap?since=5m&step=10m`, nil); rr.Code != http.StatusBadRequest ||
		!strings.Contains(rr.Body.String(), "step") {
		t.Fatalf("step > since: %d %q, want 400 naming step", rr.Code, rr.Body.String())
	}
	if rr := get(t, mux, `/api/v1/heatmap?since=2000h&step=1s`, nil); rr.Code != http.StatusBadRequest ||
		!strings.Contains(rr.Body.String(), "buckets") {
		t.Fatalf("bucket blowup: %d %q, want 400 naming buckets", rr.Code, rr.Body.String())
	}
	if rr := get(t, mux, `/api/v1/heatmap?since=banana`, nil); rr.Code != http.StatusBadRequest {
		t.Fatalf("unparseable since: %d, want 400", rr.Code)
	}
	if rr := get(t, mux, `/api/v1/heatmap?step=-2m`, nil); rr.Code != http.StatusBadRequest {
		t.Fatalf("negative step: %d, want 400", rr.Code)
	}
}

// With tenant tokens configured, the query endpoints demand a bearer
// token; status endpoints stay open; the default single-tenant setup
// (no tokens) keeps everything reachable without headers.
func TestTenantAuthOnQueryEndpoints(t *testing.T) {
	p := testPipeline(t, core.Options{})
	mustTickAt(t, p, time.Date(2022, 3, 3, 1, 46, 0, 0, time.UTC))
	auth := tenant.NewAuth(map[string]string{"s3cr3t": "hpc-a"})
	mux := newStatusMux(p, serverOpts{auth: auth})

	for _, url := range []string{
		`/query/logs?q={app="x"}`,
		`/query/metrics?q=node_temp_celsius`,
		`/api/v1/heatmap?since=10m&step=2m`,
	} {
		if rr := get(t, mux, url, nil); rr.Code != http.StatusUnauthorized {
			t.Fatalf("%s without token: %d, want 401", url, rr.Code)
		}
		if rr := get(t, mux, url, map[string]string{"Authorization": "Bearer nope"}); rr.Code != http.StatusUnauthorized {
			t.Fatalf("%s with bad token: %d, want 401", url, rr.Code)
		}
		if rr := get(t, mux, url, map[string]string{"Authorization": "Bearer s3cr3t"}); rr.Code != http.StatusOK {
			t.Fatalf("%s with token: %d %s", url, rr.Code, rr.Body.String())
		}
	}
	// A token for tenant hpc-a cannot claim to be another org.
	rr := get(t, mux, `/query/logs?q={app="x"}`, map[string]string{
		"Authorization": "Bearer s3cr3t", tenant.OrgIDHeader: "hpc-b",
	})
	if rr.Code != http.StatusUnauthorized {
		t.Fatalf("org mismatch: %d, want 401", rr.Code)
	}
	if rr := get(t, mux, "/status", nil); rr.Code != http.StatusOK {
		t.Fatalf("status behind auth: %d", rr.Code)
	}
}

func mustTickAt(t *testing.T, p *core.Pipeline, now time.Time) {
	t.Helper()
	if err := p.Tick(now); err != nil {
		t.Fatal(err)
	}
}
