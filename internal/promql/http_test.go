package promql

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"shastamon/internal/labels"
	"shastamon/internal/tsdb"
)

type promResp struct {
	Status    string `json:"status"`
	Error     string `json:"error"`
	ErrorType string `json:"errorType"`
	Data      struct {
		ResultType string          `json:"resultType"`
		Result     json.RawMessage `json:"result"`
	} `json:"data"`
}

func getProm(t *testing.T, url string) (int, promResp) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out promResp
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestHTTPInstantQuery(t *testing.T) {
	db := tsdb.New()
	_ = db.AppendMetric("node_temp_celsius", labels.FromStrings("xname", "x1"), 10_000, 85)
	srv := httptest.NewServer(NewEngine(db).Handler())
	defer srv.Close()

	code, out := getProm(t, srv.URL+`/api/v1/query?query=node_temp_celsius&time=11`)
	if code != 200 || out.Data.ResultType != "vector" {
		t.Fatalf("%d %+v", code, out)
	}
	var result []struct {
		Metric map[string]string `json:"metric"`
		Value  [2]interface{}    `json:"value"`
	}
	_ = json.Unmarshal(out.Data.Result, &result)
	if len(result) != 1 || result[0].Value[1] != "85" || result[0].Metric["xname"] != "x1" {
		t.Fatalf("%+v", result)
	}

	// Syntax errors and the operand shapes outside the supported subset
	// are both the client's: 400, never a failed evaluation.
	for _, q := range []string{`((((`, `node_temp_celsius / node_temp_celsius`, `1 > 2`} {
		code, out = getProm(t, srv.URL+`/api/v1/query?query=`+url.QueryEscape(q))
		if code != 400 || out.Status != "error" {
			t.Fatalf("%s: %d %+v", q, code, out)
		}
	}
}

func TestHTTPQueryRange(t *testing.T) {
	db := tsdb.New()
	for i := 0; i <= 10; i++ {
		_ = db.AppendMetric("g", nil, int64(i*1000), float64(i))
	}
	srv := httptest.NewServer(NewEngine(db).Handler())
	defer srv.Close()
	code, out := getProm(t, srv.URL+`/api/v1/query_range?query=g&start=0&end=10&step=2`)
	if code != 200 || out.Data.ResultType != "matrix" {
		t.Fatalf("%d %+v", code, out)
	}
	var result []struct {
		Values [][2]interface{} `json:"values"`
	}
	_ = json.Unmarshal(out.Data.Result, &result)
	if len(result) != 1 || len(result[0].Values) != 6 {
		t.Fatalf("%+v", result)
	}
	code, _ = getProm(t, srv.URL+`/api/v1/query_range?query=g&step=0`)
	if code != 400 {
		t.Fatalf("zero step accepted: %d", code)
	}
}

func TestTSDBImportEndpoint(t *testing.T) {
	db := tsdb.New()
	srv := httptest.NewServer(db.Handler())
	defer srv.Close()

	body := "node_temp_celsius{xname=\"x1\"} 45.5 10000\nnode_temp_celsius{xname=\"x2\"} 50 10000\n"
	resp, err := http.Post(srv.URL+"/api/v1/import/prometheus", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var counts map[string]int
	_ = json.NewDecoder(resp.Body).Decode(&counts)
	if counts["accepted"] != 2 {
		t.Fatalf("%v", counts)
	}
	if db.Stats().Series != 2 {
		t.Fatalf("series %d", db.Stats().Series)
	}

	// Missing timestamps are rejected.
	resp, _ = http.Post(srv.URL+"/api/v1/import/prometheus", "text/plain", strings.NewReader("m 1\n"))
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("no-timestamp accepted: %d", resp.StatusCode)
	}

	// Metadata endpoints.
	var meta struct {
		Data []string `json:"data"`
	}
	r2, _ := http.Get(srv.URL + "/api/v1/labels")
	_ = json.NewDecoder(r2.Body).Decode(&meta)
	r2.Body.Close()
	found := false
	for _, n := range meta.Data {
		if n == "xname" {
			found = true
		}
	}
	if !found {
		t.Fatalf("labels: %v", meta.Data)
	}
	r3, _ := http.Get(srv.URL + "/api/v1/label_values?name=xname")
	_ = json.NewDecoder(r3.Body).Decode(&meta)
	r3.Body.Close()
	if len(meta.Data) != 2 {
		t.Fatalf("values: %v", meta.Data)
	}
}

// Float Unix seconds decode to the millisecond on the wire: a fractional
// time selects its own sample, the rendered timestamp is the one sent,
// garbage is a 400 and an absent time defaults to now.
func TestParseUnixSecondsFractional(t *testing.T) {
	db := tsdb.New()
	_ = db.AppendMetric("g", nil, 1646272077500, 1)
	_ = db.AppendMetric("g", nil, 1646272077501, 2)
	h := NewEngine(db).Handler()
	for _, c := range []struct{ time, want string }{
		{"1646272077.5", `"value":[1646272077.5,"1"]`},
		{"1646272077.501", `"value":[1646272077.501,"2"]`},
	} {
		if rr := serveWithin(h, "/api/v1/query?query=g&time="+c.time); rr.Code != 200 || !strings.Contains(rr.Body.String(), c.want) {
			t.Fatalf("time=%s: %d %s, want %s", c.time, rr.Code, rr.Body.String(), c.want)
		}
	}
	if rr := serveWithin(h, "/api/v1/query?query=g&time=abc"); rr.Code != http.StatusBadRequest {
		t.Fatalf("bad time accepted: %d", rr.Code)
	}
	before := float64(time.Now().UnixMilli()) / 1000
	rr := serveWithin(h, "/api/v1/query?query="+url.QueryEscape("absent(nope)"))
	var out struct {
		Data struct {
			Result []struct {
				Value [2]any `json:"value"`
			} `json:"result"`
		} `json:"data"`
	}
	_ = json.Unmarshal(rr.Body.Bytes(), &out)
	if len(out.Data.Result) != 1 || out.Data.Result[0].Value[0].(float64) < before {
		t.Fatalf("default time: %s, want now", rr.Body.String())
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

// Times and steps are validated before evaluation: a range over 11,000
// steps, a non-finite or int64-overflowing time and a non-finite or
// sub-millisecond step are 400s that name the parameter; RFC3339 times
// are accepted.
func TestHTTPParamValidation(t *testing.T) {
	db := tsdb.New()
	_ = db.AppendMetric("g", nil, 0, 1)
	h := NewEngine(db).Handler()
	for _, c := range []struct{ target, want string }{
		{`/api/v1/query_range?query=g&start=0&end=3600&step=0.001`, "exceeded maximum resolution of 11,000 points per timeseries"},
		{`/api/v1/query_range?query=g&start=0&end=11001&step=1`, "exceeded maximum resolution of 11,000 points per timeseries"},
		{`/api/v1/query_range?query=g&start=NaN&end=60`, `"start"`},
		{`/api/v1/query_range?query=g&start=-Inf&end=60`, `"start"`},
		{`/api/v1/query_range?query=g&start=0&end=Inf`, `"end"`},
		{`/api/v1/query_range?query=g&start=0&end=9223372037`, `"end"`},
		{`/api/v1/query_range?query=g&start=0&end=60&step=NaN`, `"step"`},
		{`/api/v1/query_range?query=g&start=0&end=60&step=Inf`, `"step"`},
		{`/api/v1/query_range?query=g&start=0&end=60&step=1e300`, `"step"`},
		{`/api/v1/query_range?query=g&start=0&end=60&step=0.0005`, `"step"`},
		{`/api/v1/query?query=g&time=NaN`, `"time"`},
		{`/api/v1/query?query=g&time=1e300`, `"time"`},
		{`/api/v1/query?query=g&time=-Inf`, `"time"`},
		{`/api/v1/query?query=g&time=9999-12-31T00:00:00Z`, `"time"`},
	} {
		rr := serveWithin(h, c.target)
		var out promResp
		_ = json.Unmarshal(rr.Body.Bytes(), &out)
		if rr.Code != http.StatusBadRequest || out.ErrorType != "bad_data" || !strings.Contains(out.Error, c.want) {
			t.Errorf("%s: %d %s, want 400 bad_data naming %s", c.target, rr.Code, rr.Body.String(), c.want)
		}
	}
	for _, target := range []string{
		`/api/v1/query_range?query=g&start=0&end=11000&step=1`,
		`/api/v1/query_range?query=g&start=1970-01-01T00:00:00Z&end=1970-01-01T00:01:00Z&step=1`,
		`/api/v1/query?query=g&time=1970-01-01T00:00:01Z`,
	} {
		if rr := serveWithin(h, target); rr.Code != http.StatusOK {
			t.Errorf("%s: %d %s, want 200", target, rr.Code, rr.Body.String())
		}
	}
}
