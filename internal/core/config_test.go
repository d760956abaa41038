package core

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"shastamon/internal/anomaly"
)

const sampleRules = `{
  "log_rules": [
    {
      "alert": "SwitchOffline",
      "expr": "sum(count_over_time({app=\"fabric_manager_monitor\"} |= \"fm_switch_offline\" [5m])) > 0",
      "for": "1m",
      "labels": {"severity": "critical"},
      "annotations": {"summary": "switch down"}
    }
  ],
  "metric_rules": [
    {"alert": "TargetDown", "expr": "up == 0"},
    {
      "alert": "HumidityTrend",
      "expr": "cray_telemetry_humidity",
      "for": "15s",
      "anomaly": {"method": "roc", "sensitivity": 4.5, "half_life": "2m", "min_samples": 12}
    }
  ]
}`

func TestLoadRules(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rules.json")
	if err := os.WriteFile(path, []byte(sampleRules), 0o600); err != nil {
		t.Fatal(err)
	}
	logRules, metricRules, err := LoadRules(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(logRules) != 1 || len(metricRules) != 2 {
		t.Fatalf("%d %d", len(logRules), len(metricRules))
	}
	lr := logRules[0]
	if lr.Name != "SwitchOffline" || lr.For != time.Minute || lr.Labels["severity"] != "critical" {
		t.Fatalf("%+v", lr)
	}
	if metricRules[0].Name != "TargetDown" || metricRules[0].For != 0 || metricRules[0].Anomaly != nil {
		t.Fatalf("%+v", metricRules[0])
	}
	ac := metricRules[1].Anomaly
	if ac == nil || ac.Method != anomaly.MethodRateOfChange || ac.Sensitivity != 4.5 ||
		ac.HalfLife != 2*time.Minute || ac.MinSamples != 12 {
		t.Fatalf("anomaly block: %+v", ac)
	}
	// The loaded rules build a working pipeline.
	p, err := New(Options{Cluster: smallCluster(), LogRules: logRules, MetricRules: metricRules})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
}

func TestLoadRulesErrors(t *testing.T) {
	if _, _, err := LoadRules("/nonexistent/rules.json"); err == nil {
		t.Fatal("missing file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	_ = os.WriteFile(bad, []byte("{"), 0o600)
	if _, _, err := LoadRules(bad); err == nil {
		t.Fatal("bad json accepted")
	}
	badFor := filepath.Join(dir, "badfor.json")
	_ = os.WriteFile(badFor, []byte(`{"log_rules":[{"alert":"x","expr":"rate({a=\"b\"}[1m])","for":"tomorrow"}]}`), 0o600)
	if _, _, err := LoadRules(badFor); err == nil {
		t.Fatal("bad for accepted")
	}
	badMethod := filepath.Join(dir, "badmethod.json")
	_ = os.WriteFile(badMethod, []byte(`{"metric_rules":[{"alert":"x","expr":"up","anomaly":{"method":"psychic"}}]}`), 0o600)
	if _, _, err := LoadRules(badMethod); err == nil {
		t.Fatal("unknown anomaly method accepted")
	}
	badHalfLife := filepath.Join(dir, "badhalflife.json")
	_ = os.WriteFile(badHalfLife, []byte(`{"metric_rules":[{"alert":"x","expr":"up","anomaly":{"method":"roc","half_life":"soon"}}]}`), 0o600)
	if _, _, err := LoadRules(badHalfLife); err == nil {
		t.Fatal("bad half_life accepted")
	}
}

func TestParseRulesEmpty(t *testing.T) {
	lr, mr, err := ParseRules(RuleFile{})
	if err != nil || len(lr) != 0 || len(mr) != 0 {
		t.Fatalf("%v %v %v", lr, mr, err)
	}
}

// One rule shape, one parser: a RuleConfig means the same rule whether
// it is listed for the Ruler or for vmalert, and a bad one is rejected
// the same way from either list.
func TestRuleConfigParsesAlikeInBothGroups(t *testing.T) {
	rc := RuleConfig{
		Alert: "LogRateAnomaly", Expr: "whatever the engine parses", For: "90s",
		Labels:      map[string]string{"severity": "warning"},
		Annotations: map[string]string{"summary": "{{ $labels.app }} at {{ $value }} sigma"},
		Anomaly:     &AnomalyConfig{Method: "seasonal", Sensitivity: 4, Season: "1h", Buckets: 6},
	}
	lr, mr, err := ParseRules(RuleFile{LogRules: []RuleConfig{rc}, MetricRules: []RuleConfig{rc}})
	if err != nil {
		t.Fatal(err)
	}
	if len(lr) != 1 || !reflect.DeepEqual(lr, mr) {
		t.Fatalf("log_rules parsed to\n%+v\nmetric_rules to\n%+v", lr, mr)
	}
	if r := lr[0]; r.Name != rc.Alert || r.Expr != rc.Expr || r.For != 90*time.Second ||
		r.Anomaly == nil || r.Anomaly.Method != anomaly.MethodSeasonal || r.Anomaly.Season != time.Hour {
		t.Fatalf("%+v", r)
	}
	rc.For = "tomorrow"
	_, _, logErr := ParseRules(RuleFile{LogRules: []RuleConfig{rc}})
	_, _, metricErr := ParseRules(RuleFile{MetricRules: []RuleConfig{rc}})
	if logErr == nil || metricErr == nil || logErr.Error() != metricErr.Error() {
		t.Fatalf("bad for: %v vs %v", logErr, metricErr)
	}
}
