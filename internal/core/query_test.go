package core

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"shastamon/internal/labels"
	"shastamon/internal/loki"
	"shastamon/internal/omni"
	"shastamon/internal/stats"
)

func pushFatCorpus(t *testing.T, p *Pipeline, base time.Time) {
	t.Helper()
	line := strings.Repeat("x", 100)
	entries := make([]loki.Entry, 20000) // ~2 MB against a 32 KB budget
	for i := range entries {
		entries[i] = loki.Entry{Timestamp: base.UnixNano() + int64(i+1)*1e6, Line: line}
	}
	if err := p.Warehouse.IngestLogs([]loki.PushStream{{
		Labels: labels.FromStrings("app", "fat"), Entries: entries,
	}}); err != nil {
		t.Fatal(err)
	}
}

// TestMetaAlertQueryLimitBreached is the issue's acceptance scenario: a
// query blowing through QueryLimits.MaxBytesScanned is cancelled mid-scan,
// shows up on /debug/slowlog with reason "bytes", and the
// ShastamonQueryLimitBreached meta-rule carries the breach through the
// normal vmalert -> Alertmanager -> Slack path.
func TestMetaAlertQueryLimitBreached(t *testing.T) {
	p := newPipeline(t, Options{
		MetaAlerts: true,
		Warehouse:  omni.Config{QueryLimits: stats.Config{MaxBytesScanned: 32 << 10}},
	})
	base := time.Date(2022, 3, 3, 1, 0, 0, 0, time.UTC)
	mustTick(t, p, base)
	pushFatCorpus(t, p, base)

	runaway := func() {
		t.Helper()
		_, snap, err := p.Warehouse.QueryLogsContext(context.Background(), `{app="fat"}`, 0, 1<<62)
		if !errors.Is(err, stats.ErrMaxBytesScanned) {
			t.Fatalf("err = %v, want ErrMaxBytesScanned", err)
		}
		// Cancelled mid-scan: some bytes were read, far from the full 2 MB.
		if b := snap.Summary.TotalBytesProcessed; b <= 0 || b >= 1<<20 {
			t.Fatalf("scanned %d bytes — not a mid-scan cancel", b)
		}
	}
	// Two breaches across a scrape boundary so the counter visibly
	// increases inside the rule's 10m window.
	runaway()
	mustTick(t, p, base.Add(5*time.Second))
	runaway()

	found := false
	for ts, deadline := base.Add(10*time.Second), base.Add(3*time.Minute); ts.Before(deadline); ts = ts.Add(5 * time.Second) {
		mustTick(t, p, ts)
		if slackTitles(p)["ShastamonQueryLimitBreached"] > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("ShastamonQueryLimitBreached never reached Slack; titles = %v", slackTitles(p))
	}
	// The meta-alert names the reason label.
	named := false
	for _, m := range p.Slack.Messages() {
		for _, att := range m.Attachments {
			if att.Title == "ShastamonQueryLimitBreached" && strings.Contains(att.Text, "bytes") {
				named = true
			}
		}
	}
	if !named {
		t.Fatal("meta-alert does not identify the breach reason")
	}

	// Both breaches are visible on the observability endpoint's slowlog.
	rec := httptest.NewRecorder()
	p.ObsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slowlog", nil))
	if rec.Code != 200 {
		t.Fatalf("slowlog status %d", rec.Code)
	}
	var slow struct {
		Slowlog []stats.SlowEntry `json:"slowlog"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &slow); err != nil {
		t.Fatal(err)
	}
	if len(slow.Slowlog) != 2 {
		t.Fatalf("slowlog has %d entries, want 2", len(slow.Slowlog))
	}
	for _, e := range slow.Slowlog {
		if e.Reason != "bytes" || e.Engine != "logql" {
			t.Fatalf("slowlog entry: %+v", e)
		}
	}
}

// The pipeline's tracker also feeds /debug/queries and the self-metric
// families the "Self: queries" dashboard panels read.
func TestQueryObservabilityWiring(t *testing.T) {
	p := newPipeline(t, Options{})
	base := time.Date(2022, 3, 3, 1, 0, 0, 0, time.UTC)
	mustTick(t, p, base)

	if _, _, err := p.Warehouse.QueryLogsContext(context.Background(), `{data_type="syslog"}`, 0, 1<<62); err != nil {
		t.Fatal(err)
	}
	// /debug/queries answers (empty: the query already finished).
	rec := httptest.NewRecorder()
	p.ObsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/queries", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "queries") {
		t.Fatalf("/debug/queries: %d %s", rec.Code, rec.Body)
	}
	// The shastamon_query_* and Go runtime families are on /metrics.
	rec = httptest.NewRecorder()
	p.ObsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, fam := range []string{
		"shastamon_query_duration_seconds",
		"shastamon_query_bytes_processed",
		"shastamon_queries_active",
		"shastamon_go_goroutines",
		"shastamon_go_heap_alloc_bytes",
		"shastamon_go_gc_pause_seconds",
	} {
		if !strings.Contains(body, fam) {
			t.Fatalf("/metrics missing %s", fam)
		}
	}
	// The self-stat panels render from the same state.
	out, err := p.SelfStat("query-duration-quantiles")
	if err != nil || !strings.Contains(out, "logql") {
		t.Fatalf("quantiles: %q %v", out, err)
	}
	if _, err := p.SelfStat("cache-hit-ratio"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.SelfStat("slowlog-top"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.SelfStat("nope"); err == nil {
		t.Fatal("unknown self-stat key accepted")
	}
}
