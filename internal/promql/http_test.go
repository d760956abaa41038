package promql

import (
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
	Status string `json:"status"`
	Error  string `json:"error"`
	Data   struct {
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

func TestParseUnixSecondsFractional(t *testing.T) {
	ts, err := parseUnixSeconds("1646272077.5", time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if ts.UnixMilli() != 1646272077500 {
		t.Fatalf("%d", ts.UnixMilli())
	}
	if _, err := parseUnixSeconds("abc", time.Time{}); err == nil {
		t.Fatal("bad time accepted")
	}
	def := time.Unix(42, 0)
	got, err := parseUnixSeconds("", def)
	if err != nil || !got.Equal(def) {
		t.Fatalf("%v %v", got, err)
	}
}
