package stats

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"shastamon/internal/obs"
)

func TestTrackerActiveAndKillEndpoint(t *testing.T) {
	tr := NewTracker(obs.NewRegistry(), Config{})
	ctx, finish := tr.Start(context.Background(), "logql", `{app="x"}`)

	h := tr.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/queries", nil))
	var live struct {
		Queries []ActiveQuery `json:"queries"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &live); err != nil {
		t.Fatal(err)
	}
	if len(live.Queries) != 1 || live.Queries[0].Query != `{app="x"}` || live.Queries[0].Engine != "logql" {
		t.Fatalf("active: %+v", live.Queries)
	}
	id := live.Queries[0].ID

	// Kill requires POST.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/queries/"+id+"/kill", nil))
	if rec.Code != 405 {
		t.Fatalf("GET kill = %d, want 405", rec.Code)
	}
	// Unknown ID is a 404.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/debug/queries/zzz/kill", nil))
	if rec.Code != 404 {
		t.Fatalf("unknown kill = %d, want 404", rec.Code)
	}
	// The real kill cancels the query context with ErrKilled.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/debug/queries/"+id+"/kill", nil))
	if rec.Code != 200 {
		t.Fatalf("kill = %d body %s", rec.Code, rec.Body)
	}
	select {
	case <-ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("kill did not cancel the query context")
	}
	if cause := context.Cause(ctx); !errors.Is(cause, ErrKilled) {
		t.Fatalf("cause = %v, want ErrKilled", cause)
	}

	finish(context.Cause(ctx))
	// The killed query lands in the slowlog with reason "killed".
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slowlog", nil))
	var slow struct {
		Slowlog []SlowEntry `json:"slowlog"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &slow); err != nil {
		t.Fatal(err)
	}
	if len(slow.Slowlog) != 1 || slow.Slowlog[0].Reason != "killed" {
		t.Fatalf("slowlog: %+v", slow.Slowlog)
	}
	if tr.Kill(id) {
		t.Fatal("finished query still killable")
	}
}

func TestTrackerTimeout(t *testing.T) {
	tr := NewTracker(obs.NewRegistry(), Config{Timeout: 5 * time.Millisecond})
	ctx, finish := tr.Start(context.Background(), "promql", "sum(up)")
	select {
	case <-ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("timeout never fired")
	}
	if cause := context.Cause(ctx); !errors.Is(cause, ErrQueryTimeout) {
		t.Fatalf("cause = %v, want ErrQueryTimeout", cause)
	}
	finish(context.Cause(ctx))
	log := tr.SlowLog()
	if len(log) != 1 || log[0].Reason != "timeout" {
		t.Fatalf("slowlog: %+v", log)
	}
}

func TestSlowlogRingEviction(t *testing.T) {
	tr := NewTracker(obs.NewRegistry(), Config{SlowThreshold: time.Nanosecond})
	for i := 0; i < slowLogSize+2; i++ {
		_, finish := tr.Start(context.Background(), "logql", fmt.Sprintf("query-%d", i))
		time.Sleep(time.Microsecond) // every query crosses the 1ns threshold
		finish(nil)
	}
	log := tr.SlowLog()
	if len(log) != slowLogSize {
		t.Fatalf("ring kept %d entries, want %d", len(log), slowLogSize)
	}
	// Newest first; the two oldest (query-0, query-1) were evicted.
	for i, e := range log {
		if want := fmt.Sprintf("query-%d", slowLogSize+1-i); e.Query != want {
			t.Fatalf("log[%d] = %q, want %q", i, e.Query, want)
		}
		if e.Reason != "slow" {
			t.Fatalf("reason = %q, want slow", e.Reason)
		}
	}
}

func TestTrackerMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	tr := NewTracker(reg, Config{SlowThreshold: time.Nanosecond})
	_, finish := tr.Start(context.Background(), "logql", "ok")
	FromContext(nil).MarkExec() // no-op; exercises nil path
	time.Sleep(time.Microsecond)
	finish(nil)
	_, finish = tr.Start(context.Background(), "logql", "breached")
	finish(ErrMaxBytesScanned)

	fams := reg.Gather()
	if got := obs.Value(fams, obs.Namespace+"query_duration_seconds_count", "engine", "logql"); got != 2 {
		t.Fatalf("duration count = %v, want 2", got)
	}
	if got := obs.Value(fams, obs.Namespace+"query_limit_breached_total", "reason", "bytes"); got != 1 {
		t.Fatalf("limit breached = %v, want 1", got)
	}
	if got := obs.Value(fams, obs.Namespace+"query_slow_total", "engine", "logql"); got != 2 {
		t.Fatalf("slow total = %v, want 2", got)
	}
	if got := obs.Value(fams, obs.Namespace+"queries_active"); got != 0 {
		t.Fatalf("active = %v, want 0", got)
	}
}

func TestNilTrackerStart(t *testing.T) {
	var tr *Tracker
	ctx, finish := tr.Start(context.Background(), "logql", "x")
	sc := FromContext(ctx)
	if sc == nil {
		t.Fatal("nil tracker lost the stats context")
	}
	(&Worker{BytesProcessed: 7}).FlushTo(sc)
	if snap := finish(nil); snap.Summary.TotalBytesProcessed != 7 {
		t.Fatalf("snapshot: %+v", snap)
	}
	if tr.Kill("q1") || tr.Active() != nil || tr.SlowLog() != nil {
		t.Fatal("nil tracker invented state")
	}
}

func TestTrackerSpansReplayedOnTracer(t *testing.T) {
	tr := NewTracker(obs.NewRegistry(), Config{})
	tracer := obs.NewTracer(16)
	tr.SetTracer(tracer)
	ctx, finish := tr.Start(context.Background(), "logql", `{app="x"}`)
	sc := FromContext(ctx)
	now := time.Now()
	sc.AddSpan("loki.select", now, now.Add(time.Millisecond), "1 streams over 1 shards")
	tid := obs.TraceIDFrom(ctx)
	if tid == "" {
		t.Fatal("no trace id on the query context")
	}
	finish(nil)
	rec := httptest.NewRecorder()
	tracer.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace/"+tid+"?format=waterfall", nil))
	body := rec.Body.String()
	for _, want := range []string{"loki.select", "query.total"} {
		if !strings.Contains(body, want) {
			t.Fatalf("waterfall missing %q:\n%s", want, body)
		}
	}
}
