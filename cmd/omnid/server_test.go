package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"shastamon/internal/core"
	"shastamon/internal/labels"
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

// The Loki query API: parse and validation errors are 400, success is
// 200, and engine errors route through stats.HTTPStatus instead of a
// blanket 400.
func TestQueryLogsStatusCodes(t *testing.T) {
	p := testPipeline(t, core.Options{})
	mustTickAt(t, p, time.Date(2022, 3, 3, 1, 46, 0, 0, time.UTC))
	mux := newStatusMux(p, serverOpts{})

	if rr := get(t, mux, `/loki/api/v1/query_range?query={app="fabric_manager_monitor"}`, nil); rr.Code != http.StatusOK {
		t.Fatalf("valid query: %d %s", rr.Code, rr.Body.String())
	}
	if rr := get(t, mux, `/loki/api/v1/query_range?query={app=`, nil); rr.Code != http.StatusBadRequest {
		t.Fatalf("parse error: %d, want 400", rr.Code)
	}
	// A log selector is not a metric expression: the instant endpoint
	// refuses it with a 400, pre-engine.
	if rr := get(t, mux, `/loki/api/v1/query?query={app="x"}`, nil); rr.Code != http.StatusBadRequest {
		t.Fatalf("log selector on the instant endpoint: %d, want 400", rr.Code)
	}
	if rr := get(t, mux, `/loki/api/v1/query_range?query={app="x"}&start=not-a-time`, nil); rr.Code != http.StatusBadRequest ||
		!strings.Contains(rr.Body.String(), `\"start\"`) {
		t.Fatalf("bad start: %d %q, want 400 naming start", rr.Code, rr.Body.String())
	}
	if rr := get(t, mux, `/loki/api/v1/query_range?query={app="x"}&end=2022-99-99`, nil); rr.Code != http.StatusBadRequest ||
		!strings.Contains(rr.Body.String(), `\"end\"`) {
		t.Fatalf("bad end: %d %q, want 400 naming end", rr.Code, rr.Body.String())
	}
	// Explicit RFC3339 and unix-nano bounds are accepted.
	if rr := get(t, mux, `/loki/api/v1/query_range?query={app="x"}&start=2022-03-03T00:00:00Z&end=1646273280000000000`, nil); rr.Code != http.StatusOK {
		t.Fatalf("explicit window: %d %s", rr.Code, rr.Body.String())
	}
}

// An engine-side failure on the Loki query API must not masquerade as
// a client error: a query killed by the timeout guardrail returns 504.
func TestQueryLogsEngineTimeoutIs504(t *testing.T) {
	p := testPipeline(t, core.Options{
		LokiLimits: loki.Limits{QueryTimeout: time.Nanosecond},
	})
	mustTickAt(t, p, time.Date(2022, 3, 3, 1, 46, 0, 0, time.UTC))
	mux := newStatusMux(p, serverOpts{})
	rr := get(t, mux, `/loki/api/v1/query_range?query={app="fabric_manager_monitor"}`, nil)
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out query: %d %s, want 504", rr.Code, rr.Body.String())
	}
}

func TestQueryMetricsStatusCodes(t *testing.T) {
	p := testPipeline(t, core.Options{})
	mustTickAt(t, p, time.Date(2022, 3, 3, 1, 46, 0, 0, time.UTC))
	mux := newStatusMux(p, serverOpts{})
	if rr := get(t, mux, `/api/v1/query?query=node_temp_celsius`, nil); rr.Code != http.StatusOK {
		t.Fatalf("valid query: %d %s", rr.Code, rr.Body.String())
	}
	if rr := get(t, mux, `/api/v1/query?query=sum(`, nil); rr.Code != http.StatusBadRequest {
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
		`/loki/api/v1/query_range?query={app="x"}`,
		`/api/v1/query?query=node_temp_celsius`,
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
	rr := get(t, mux, `/loki/api/v1/query_range?query={app="x"}`, map[string]string{
		"Authorization": "Bearer s3cr3t", tenant.OrgIDHeader: "hpc-b",
	})
	if rr.Code != http.StatusUnauthorized {
		t.Fatalf("org mismatch: %d, want 401", rr.Code)
	}
	if rr := get(t, mux, "/status", nil); rr.Code != http.StatusOK {
		t.Fatalf("status behind auth: %d", rr.Code)
	}
}

// With -metrics the status listener serves every route of the
// pipeline's observability handler, answering as that handler does;
// without it none of them.
func TestObsRoutesOnStatusMux(t *testing.T) {
	p := testPipeline(t, core.Options{})
	mustTickAt(t, p, time.Date(2022, 3, 3, 1, 46, 0, 0, time.UTC))
	obsMux := p.ObsHandler()
	on := newStatusMux(p, serverOpts{metrics: true})
	off := newStatusMux(p, serverOpts{})
	for _, path := range []string{
		"/metrics", "/debug/trace/", "/debug/slo", "/debug/queries", "/debug/queries/q1/kill",
		"/debug/slowlog", "/debug/templates",
	} {
		want := httptest.NewRecorder()
		obsMux.ServeHTTP(want, httptest.NewRequest(http.MethodGet, path, nil))
		if want.Code == http.StatusNotFound {
			t.Fatalf("%s: not an ObsHandler route", path)
		}
		if rr := get(t, on, path, nil); rr.Code != want.Code || rr.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
			t.Errorf("%s with -metrics: %d %q, ObsHandler answers %d %q",
				path, rr.Code, rr.Header().Get("Content-Type"), want.Code, want.Header().Get("Content-Type"))
		}
		if rr := get(t, off, path, nil); rr.Code != http.StatusNotFound {
			t.Errorf("%s without -metrics: %d, want 404", path, rr.Code)
		}
	}
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol", "/debug/pprof/heap?debug=1"} {
		if rr := get(t, on, path, nil); rr.Code != http.StatusOK {
			t.Errorf("%s with -metrics: %d", path, rr.Code)
		}
		if rr := get(t, off, path, nil); rr.Code != http.StatusNotFound {
			t.Errorf("%s without -metrics: %d, want 404", path, rr.Code)
		}
	}
	if rr := get(t, on, "/debug/dlq", nil); rr.Code != http.StatusOK {
		t.Errorf("dlq with -metrics: %d", rr.Code)
	}
}

func mustTickAt(t *testing.T, p *core.Pipeline, now time.Time) {
	t.Helper()
	if err := p.Tick(now); err != nil {
		t.Fatal(err)
	}
}

// The query APIs' response shapes, pinned: status, Content-Type,
// resultType and the exact result bytes of an instant, range, streams
// and error response on each API, as Grafana reads them. Both APIs
// share one error envelope, Prometheus' with errorType. Statistics are
// timing-dependent and left out; TestHTTPStatisticsBlock covers them.
func TestQueryResponseShape(t *testing.T) {
	p := testPipeline(t, core.Options{})
	base := time.Date(2022, 3, 3, 1, 0, 0, 0, time.UTC)
	for i := 0; i < 6; i++ {
		ts := base.Add(time.Duration(i) * 30 * time.Second)
		level := []string{"info", "err"}[i%2]
		if err := p.Warehouse.IngestLogs([]loki.PushStream{{
			Labels:  labels.FromStrings("app", "shape", "level", level),
			Entries: []loki.Entry{{Timestamp: ts.UnixNano(), Line: fmt.Sprintf("%s line %d", level, i)}},
		}}); err != nil {
			t.Fatal(err)
		}
		if err := p.Warehouse.IngestMetric("shape_temp", labels.FromStrings("xname", "x1"), ts.UnixMilli(), 40+float64(i)/4); err != nil {
			t.Fatal(err)
		}
	}
	ns, s := base.Add(3*time.Minute).UnixNano(), base.Add(3*time.Minute).Unix()
	mux := newStatusMux(p, serverOpts{})
	rows := []struct{ url, want string }{
		{fmt.Sprintf(`/loki/api/v1/query?query=%s&time=%d`, url.QueryEscape(`sum by (level) (count_over_time({app="shape"}[5m]))`), ns),
			`200 application/json vector [{"metric":{"level":"err"},"value":[1646269380,"3"]},{"metric":{"level":"info"},"value":[1646269380,"3"]}]`},
		{fmt.Sprintf(`/loki/api/v1/query_range?query=%s&start=%d&end=%d&step=60`, url.QueryEscape(`sum(count_over_time({app="shape"}[1m]))`), base.UnixNano(), ns),
			`200 application/json matrix [{"metric":{},"values":[[1646269200,"1"],[1646269260,"2"],[1646269320,"2"],[1646269380,"1"]]}]`},
		{fmt.Sprintf(`/loki/api/v1/query_range?query=%s&start=%d&end=%d`, url.QueryEscape(`{app="shape"} |= "err"`), base.UnixNano(), ns),
			`200 application/json streams [{"stream":{"app":"shape","level":"err"},"values":[["1646269230000000000","err line 1"],["1646269290000000000","err line 3"],["1646269350000000000","err line 5"]]}]`},
		{`/loki/api/v1/query?query=` + url.QueryEscape(`{app="shape"}`),
			`400 application/json  {"error":"instant queries require a metric expression","errorType":"bad_data","status":"error"}`},
		{`/loki/api/v1/query_range?query=` + url.QueryEscape(`{app=`),
			`400 application/json  {"error":"logql: parse error at 5 in \"{app=\": expected string, got EOF \"\"","errorType":"bad_data","status":"error"}`},
		{fmt.Sprintf(`/api/v1/query?query=shape_temp&time=%d`, s),
			`200 application/json vector [{"metric":{"__name__":"shape_temp","xname":"x1"},"value":[1646269380,"41.25"]}]`},
		{fmt.Sprintf(`/api/v1/query_range?query=%s&start=%d&end=%d&step=45`, url.QueryEscape(`max_over_time(shape_temp[1m])`), base.Unix(), s),
			`200 application/json matrix [{"metric":{"xname":"x1"},"values":[[1646269200,"40"],[1646269245,"40.25"],[1646269290,"40.75"],[1646269335,"41"],[1646269380,"41.25"]]}]`},
		{`/api/v1/query?query=shape_temp&time=1646269290.5`,
			`200 application/json vector [{"metric":{"__name__":"shape_temp","xname":"x1"},"value":[1646269290.5,"40.75"]}]`},
		{`/api/v1/query?query=` + url.QueryEscape(`sum(`),
			`400 application/json  {"error":"promql: parse error at 4 in \"sum(\": unexpected \"\"","errorType":"bad_data","status":"error"}`},
	}
	for _, row := range rows {
		rr := get(t, mux, row.url, nil)
		var body struct {
			Data struct {
				ResultType string          `json:"resultType"`
				Result     json.RawMessage `json:"result"`
			} `json:"data"`
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: %v in %q", row.url, err, rr.Body.String())
		}
		result := string(body.Data.Result)
		if rr.Code != http.StatusOK {
			result = strings.TrimSpace(rr.Body.String())
		}
		got := fmt.Sprintf("%d %s %s %s", rr.Code, rr.Header().Get("Content-Type"), body.Data.ResultType, result)
		if got != row.want {
			t.Errorf("%s\n got %s\nwant %s", row.url, got, row.want)
		}
	}
}
