package omni

import (
	"testing"
	"time"

	"shastamon/internal/labels"
	"shastamon/internal/loki"
)

func TestIngestAndQueryBothStores(t *testing.T) {
	w := New(Config{})
	ls := labels.FromStrings("data_type", "syslog", "hostname", "nid1")
	if err := w.IngestLogs([]loki.PushStream{{Labels: ls, Entries: []loki.Entry{{Timestamp: 1e9, Line: "hello"}}}}); err != nil {
		t.Fatal(err)
	}
	if err := w.IngestMetric("temp", labels.FromStrings("xname", "x1"), 1000, 42); err != nil {
		t.Fatal(err)
	}
	streams, err := w.LogQL.QueryLogs(`{hostname="nid1"}`, 0, 2e9)
	if err != nil || len(streams) != 1 {
		t.Fatalf("%v %v", streams, err)
	}
	vec, err := w.PromQL.Query(`temp`, 2000)
	if err != nil || len(vec) != 1 || vec[0].V != 42 {
		t.Fatalf("%v %v", vec, err)
	}
	st := w.Stats()
	if st.LogMessages != 1 || st.LogBytes != 5 || st.Samples != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.LogStore.Streams != 1 || st.MetricStore.Series != 1 {
		t.Fatalf("store stats: %+v", st)
	}
}

func TestRetentionEnforcement(t *testing.T) {
	w := New(Config{Retention: time.Hour, LokiLimits: loki.Limits{
		MaxLabelNamesPerStream: 5, MaxLineSize: 1024,
	}})
	base := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	ls := labels.FromStrings("a", "b")
	_ = w.IngestLogs([]loki.PushStream{{Labels: ls, Entries: []loki.Entry{{Timestamp: base.UnixNano(), Line: "old"}}}})
	_ = w.IngestMetric("m", nil, base.UnixMilli(), 1)
	_ = w.IngestMetric("m", nil, base.Add(3*time.Hour).UnixMilli(), 2)

	chunks, samples := w.EnforceRetention(base.Add(3 * time.Hour))
	if chunks != 1 || samples != 1 {
		t.Fatalf("dropped %d chunks %d samples", chunks, samples)
	}
	// Zero-retention warehouse never drops.
	w2 := New(Config{})
	_ = w2.IngestMetric("m", nil, 0, 1)
	if c, s := w2.EnforceRetention(time.Now()); c != 0 || s != 0 {
		t.Fatalf("unexpected drop: %d %d", c, s)
	}
}

func TestRateWindow(t *testing.T) {
	w := New(Config{})
	base := time.Unix(1000, 0)
	w.RateWindowReset(base)
	for i := 0; i < 500; i++ {
		_ = w.IngestMetric("m", labels.FromStrings("i", "x"), int64(i), 1)
	}
	rate := w.RateWindow(base.Add(2 * time.Second))
	if rate != 250 {
		t.Fatalf("rate = %v", rate)
	}
	if w.RateWindow(base) != 0 {
		t.Fatal("zero-width window should report 0")
	}
}
