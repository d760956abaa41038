package logql

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"shastamon/internal/frontend"
	"shastamon/internal/labels"
	"shastamon/internal/loki"
)

type lokiResp struct {
	Status    string `json:"status"`
	Error     string `json:"error"`
	ErrorType string `json:"errorType"`
	Data      struct {
		ResultType string          `json:"resultType"`
		Result     json.RawMessage `json:"result"`
	} `json:"data"`
}

func getJSON(t *testing.T, url string) (int, lokiResp) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out lokiResp
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestHTTPInstantQuery(t *testing.T) {
	store := loki.NewStore(loki.DefaultLimits())
	ls := labels.FromStrings("app", "x")
	_ = store.Push([]loki.PushStream{{Labels: ls, Entries: []loki.Entry{{Timestamp: 1e9, Line: "event"}}}})
	srv := httptest.NewServer(NewEngine(store).Handler())
	defer srv.Close()

	code, out := getJSON(t, fmt.Sprintf(`%s/loki/api/v1/query?query=%s&time=%d`,
		srv.URL, `count_over_time({app="x"}[1m])`, int64(time.Minute)))
	if code != 200 || out.Status != "success" || out.Data.ResultType != "vector" {
		t.Fatalf("%d %+v", code, out)
	}
	var result []struct {
		Metric map[string]string `json:"metric"`
		Value  [2]interface{}    `json:"value"`
	}
	_ = json.Unmarshal(out.Data.Result, &result)
	if len(result) != 1 || result[0].Value[1] != "1" {
		t.Fatalf("%+v", result)
	}

	// Log expression on the instant endpoint: 400.
	code, _ = getJSON(t, srv.URL+`/loki/api/v1/query?query={app="x"}`)
	if code != 400 {
		t.Fatalf("log query accepted: %d", code)
	}
}

func TestHTTPQueryRangeStreams(t *testing.T) {
	store := loki.NewStore(loki.DefaultLimits())
	ls := labels.FromStrings("app", "fabric_manager_monitor")
	_ = store.Push([]loki.PushStream{{Labels: ls, Entries: []loki.Entry{
		{Timestamp: 1e9, Line: "[critical] problem:fm_switch_offline, xname:x1002c1r7b0, state:UNKNOWN"},
	}}})
	srv := httptest.NewServer(NewEngine(store).Handler())
	defer srv.Close()

	code, out := getJSON(t, srv.URL+`/loki/api/v1/query_range?query={app="fabric_manager_monitor"}&start=0&end=2000000000`)
	if code != 200 || out.Data.ResultType != "streams" {
		t.Fatalf("%d %+v", code, out)
	}
	var result []struct {
		Stream map[string]string `json:"stream"`
		Values [][2]string       `json:"values"`
	}
	_ = json.Unmarshal(out.Data.Result, &result)
	if len(result) != 1 || len(result[0].Values) != 1 || result[0].Values[0][0] != "1000000000" {
		t.Fatalf("%+v", result)
	}
}

func TestHTTPQueryRangeMatrix(t *testing.T) {
	store := loki.NewStore(loki.DefaultLimits())
	ls := labels.FromStrings("app", "x")
	_ = store.Push([]loki.PushStream{{Labels: ls, Entries: []loki.Entry{{Timestamp: 30e9, Line: "e"}}}})
	srv := httptest.NewServer(NewEngine(store).Handler())
	defer srv.Close()

	code, out := getJSON(t, fmt.Sprintf(`%s/loki/api/v1/query_range?query=%s&start=0&end=%d&step=30`,
		srv.URL, `sum(count_over_time({app="x"}[1m]))`, int64(2*time.Minute)))
	if code != 200 || out.Data.ResultType != "matrix" {
		t.Fatalf("%d %+v", code, out)
	}
}

func TestHTTPQueryErrors(t *testing.T) {
	srv := httptest.NewServer(NewEngine(loki.NewStore(loki.DefaultLimits())).Handler())
	defer srv.Close()
	code, out := getJSON(t, srv.URL+`/loki/api/v1/query?query={{{`)
	if code != 400 || out.Status != "error" {
		t.Fatalf("%d %+v", code, out)
	}
	code, _ = getJSON(t, srv.URL+`/loki/api/v1/query?query=rate({a="b"}[1m])&time=abc`)
	if code != 400 {
		t.Fatalf("bad time accepted: %d", code)
	}
	code, _ = getJSON(t, srv.URL+`/loki/api/v1/query_range?query=rate({a="b"}[1m])&step=-1`)
	if code != 400 {
		t.Fatalf("bad step accepted: %d", code)
	}
}

// TestHTTPQueryRangeShedsWith429 saturates the frontend's only execution
// slot and checks the next range query is shed with 429 instead of
// queueing unbounded.
func TestHTTPQueryRangeShedsWith429(t *testing.T) {
	store := loki.NewStore(loki.DefaultLimits())
	ls := labels.FromStrings("app", "x")
	_ = store.Push([]loki.PushStream{{Labels: ls, Entries: []loki.Entry{{Timestamp: 30e9, Line: "e"}}}})
	eng := NewEngine(store)
	f := frontend.New(frontend.Config{MaxConcurrent: 1, MaxQueueDepth: -1})
	eng.SetFrontend(f)
	srv := httptest.NewServer(eng.Handler())
	defer srv.Close()

	// Occupy the single logql slot with a blocking request straight into
	// the shared frontend — same admission queue the handler uses.
	block := make(chan struct{})
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := f.QueryRange(context.Background(), frontend.Request{
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

	code, out := getJSON(t, fmt.Sprintf(`%s/loki/api/v1/query_range?query=%s&start=0&end=%d&step=30`,
		srv.URL, `sum(count_over_time({app="x"}[1m]))`, int64(2*time.Minute)))
	if code != http.StatusTooManyRequests || out.Status != "error" {
		t.Fatalf("saturated frontend: got %d %+v, want 429", code, out)
	}
	if f.Rejected() != 1 {
		t.Fatalf("Rejected() = %d, want 1", f.Rejected())
	}

	close(block)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	code, _ = getJSON(t, fmt.Sprintf(`%s/loki/api/v1/query_range?query=%s&start=0&end=%d&step=30`,
		srv.URL, `sum(count_over_time({app="x"}[1m]))`, int64(2*time.Minute)))
	if code != 200 {
		t.Fatalf("after release: %d", code)
	}
}

// serveWithin runs one request against h under a short deadline, so a
// handler that starts evaluating a runaway range fails instead of
// hanging the test.
func serveWithin(h http.Handler, target string) *httptest.ResponseRecorder {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, target, nil).WithContext(ctx))
	return rr
}

// Times and steps are validated before evaluation: a metric range over
// 11,000 steps, a time that overflows int64 nanoseconds and a
// non-finite or sub-nanosecond step are 400s that name the parameter.
// Log-stream queries take no step and are not capped. RFC3339 times
// are accepted.
func TestHTTPParamValidation(t *testing.T) {
	store := loki.NewStore(loki.DefaultLimits())
	_ = store.Push([]loki.PushStream{{Labels: labels.FromStrings("app", "x"), Entries: []loki.Entry{{Timestamp: 1e9, Line: "e"}}}})
	h := NewEngine(store).Handler()
	metric := url.QueryEscape(`count_over_time({app="x"}[1m])`)
	for _, c := range []struct{ target, want string }{
		{`/loki/api/v1/query_range?query=` + metric + `&start=0&end=3600000000000&step=0.001`, "exceeded maximum resolution of 11,000 points per timeseries"},
		{`/loki/api/v1/query_range?query=` + metric + `&start=0&end=11001000000000&step=1`, "exceeded maximum resolution of 11,000 points per timeseries"},
		{`/loki/api/v1/query_range?query=` + metric + `&start=NaN&end=60`, `"start"`},
		{`/loki/api/v1/query_range?query=` + metric + `&start=0&end=9223372036854775808`, `"end"`},
		{`/loki/api/v1/query_range?query=` + metric + `&start=0&end=9999-12-31T00:00:00Z`, `"end"`},
		{`/loki/api/v1/query_range?query=` + metric + `&start=0&end=60&step=NaN`, `"step"`},
		{`/loki/api/v1/query_range?query=` + metric + `&start=0&end=60&step=-Inf`, `"step"`},
		{`/loki/api/v1/query_range?query=` + metric + `&start=0&end=60&step=1e300`, `"step"`},
		{`/loki/api/v1/query_range?query=` + metric + `&start=0&end=60&step=1e-10`, `"step"`},
		{`/loki/api/v1/query?query=` + metric + `&time=Inf`, `"time"`},
		{`/loki/api/v1/query?query=` + metric + `&time=-9223372036854775809`, `"time"`},
	} {
		rr := serveWithin(h, c.target)
		var out lokiResp
		_ = json.Unmarshal(rr.Body.Bytes(), &out)
		if rr.Code != http.StatusBadRequest || out.ErrorType != "bad_data" || !strings.Contains(out.Error, c.want) {
			t.Errorf("%s: %d %s, want 400 bad_data naming %s", c.target, rr.Code, rr.Body.String(), c.want)
		}
	}
	for _, target := range []string{
		`/loki/api/v1/query_range?query=` + metric + `&start=0&end=11000000000000&step=1`,
		`/loki/api/v1/query_range?query=` + url.QueryEscape(`{app="x"}`) + `&start=0&end=3600000000000&step=0.001`,
		`/loki/api/v1/query_range?query=` + metric + `&start=1970-01-01T00:00:00Z&end=1970-01-01T00:01:00Z&step=1`,
		`/loki/api/v1/query?query=` + metric + `&time=1970-01-01T00:00:30Z`,
		// One step from the top of int64 nanoseconds: the range ends.
		`/loki/api/v1/query_range?query=` + metric + `&start=9223372036000000000&end=9223372036000000000&step=60`,
	} {
		if rr := serveWithin(h, target); rr.Code != http.StatusOK {
			t.Errorf("%s: %d %s, want 200", target, rr.Code, rr.Body.String())
		}
	}
}
