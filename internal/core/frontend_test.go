package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"shastamon/internal/frontend"
	"shastamon/internal/labels"
	"shastamon/internal/loki"
	"shastamon/internal/omni"
	"shastamon/internal/stats"
)

// TestMetaAlertQueryQueueSaturated is the load-shedding acceptance
// scenario: with the frontend squeezed to one slot and no wait line, a
// range query arriving behind a running one is rejected with an explicit
// ErrQueueFull (the 429 path) instead of queueing, and the
// ShastamonQueryQueueSaturated meta-rule carries the shed through
// vmalert -> Alertmanager -> Slack.
func TestMetaAlertQueryQueueSaturated(t *testing.T) {
	p := newPipeline(t, Options{
		MetaAlerts: true,
		Warehouse:  omni.Config{Frontend: frontend.Config{MaxConcurrent: 1, MaxQueueDepth: -1}},
	})
	base := time.Date(2022, 3, 3, 1, 0, 0, 0, time.UTC)
	mustTick(t, p, base)

	f := p.Warehouse.Frontend
	saturate := func() {
		t.Helper()
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
		_, err := p.Warehouse.LogQL.QueryRangeContext(context.Background(),
			`count_over_time({data_type="syslog"}[1m])`, 0, 60e9, time.Minute)
		if !errors.Is(err, stats.ErrQueueFull) {
			t.Fatalf("saturated frontend returned %v, want ErrQueueFull", err)
		}
		close(block)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// Two sheds across a scrape boundary so the counter visibly increases
	// inside the rule's 5m window.
	saturate()
	mustTick(t, p, base.Add(5*time.Second))
	saturate()
	if f.Rejected() != 2 {
		t.Fatalf("Rejected() = %d, want 2", f.Rejected())
	}

	found := false
	for ts, deadline := base.Add(10*time.Second), base.Add(3*time.Minute); ts.Before(deadline); ts = ts.Add(5 * time.Second) {
		mustTick(t, p, ts)
		if slackTitles(p)["ShastamonQueryQueueSaturated"] > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("ShastamonQueryQueueSaturated never reached Slack; titles = %v", slackTitles(p))
	}
}

// TestMetaAlertQueryCacheThrash undersizes the results cache and runs a
// wide set of distinct dashboard queries so evictions churn past the
// rule's threshold; the ShastamonQueryCacheThrash meta-rule must land in
// Slack through the same path as every other self-alert.
func TestMetaAlertQueryCacheThrash(t *testing.T) {
	p := newPipeline(t, Options{
		MetaAlerts: true,
		// A few hundred bytes: every cached split evicts a predecessor.
		Warehouse: omni.Config{Frontend: frontend.Config{CacheBytes: 512}},
	})
	base := time.Date(2022, 3, 3, 1, 0, 0, 0, time.UTC)
	mustTick(t, p, base)

	// A corpus of one stream per app, an hour in the past so cached
	// windows sit far behind the mutable head.
	old := base.Add(-time.Hour)
	for app := 0; app < 40; app++ {
		var entries []loki.Entry
		for i := 0; i < 10; i++ {
			entries = append(entries, loki.Entry{
				Timestamp: old.UnixNano() + int64(i)*30e9,
				Line:      "tick",
			})
		}
		if err := p.Warehouse.IngestLogs([]loki.PushStream{{
			Labels:  labels.FromStrings("app", fmt.Sprintf("thrash%d", app)),
			Entries: entries,
		}}); err != nil {
			t.Fatal(err)
		}
	}
	churn := func() {
		t.Helper()
		for app := 0; app < 40; app++ {
			q := fmt.Sprintf(`count_over_time({app="thrash%d"}[1m])`, app)
			if _, err := p.Warehouse.LogQL.QueryRangeContext(context.Background(),
				q, old.UnixNano(), old.Add(10*time.Minute).UnixNano(), time.Minute); err != nil {
				t.Fatal(err)
			}
		}
	}
	churn()
	mustTick(t, p, base.Add(5*time.Second))
	churn()
	if st := p.Warehouse.Frontend.CacheStats(); st.Evictions <= 64 {
		t.Fatalf("churn produced only %d evictions, need > 64 for the rule: %+v", st.Evictions, st)
	}

	found := false
	for ts, deadline := base.Add(10*time.Second), base.Add(3*time.Minute); ts.Before(deadline); ts = ts.Add(5 * time.Second) {
		mustTick(t, p, ts)
		if slackTitles(p)["ShastamonQueryCacheThrash"] > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("ShastamonQueryCacheThrash never reached Slack; titles = %v", slackTitles(p))
	}
}
