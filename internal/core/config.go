package core

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"shastamon/internal/anomaly"
	"shastamon/internal/ruler"
	"shastamon/internal/vmalert"
)

// RuleConfig is the JSON shape of one alerting rule, mirroring the
// Prometheus/Loki rule file format (Fig. 8):
//
//	{
//	  "alert": "SwitchOffline",
//	  "expr": "sum(count_over_time({app=\"fabric_manager_monitor\"} ... [5m])) by (...) > 0",
//	  "for": "1m",
//	  "labels": {"severity": "critical"},
//	  "annotations": {"summary": "switch {{ $labels.xname }} is {{ $labels.state }}"}
//	}
type RuleConfig struct {
	Alert       string            `json:"alert"`
	Expr        string            `json:"expr"`
	For         string            `json:"for,omitempty"`
	Labels      map[string]string `json:"labels,omitempty"`
	Annotations map[string]string `json:"annotations,omitempty"`
	// Anomaly turns the rule predictive (see README § Predictive
	// alerting): expr selects series, the detector judges each sample
	// against its own streaming baseline, and only anomalous samples
	// reach the for-hold.
	Anomaly *AnomalyConfig `json:"anomaly,omitempty"`
}

// AnomalyConfig is the JSON shape of an anomaly.Config. Every field is
// optional except method; durations use Go syntax ("5m").
type AnomalyConfig struct {
	Method      string  `json:"method"`
	Sensitivity float64 `json:"sensitivity,omitempty"`
	HalfLife    string  `json:"half_life,omitempty"`
	Season      string  `json:"season,omitempty"`
	Buckets     int     `json:"buckets,omitempty"`
	MinSamples  int     `json:"min_samples,omitempty"`
	MaxSeries   int     `json:"max_series,omitempty"`
}

func (ac *AnomalyConfig) toConfig(rule string) (*anomaly.Config, error) {
	if ac == nil {
		return nil, nil
	}
	cfg := &anomaly.Config{
		Method:      anomaly.Method(ac.Method),
		Sensitivity: ac.Sensitivity,
		Buckets:     ac.Buckets,
		MinSamples:  ac.MinSamples,
		MaxSeries:   ac.MaxSeries,
	}
	for _, f := range []struct {
		name string
		in   string
		out  *time.Duration
	}{{"half_life", ac.HalfLife, &cfg.HalfLife}, {"season", ac.Season, &cfg.Season}} {
		if f.in == "" {
			continue
		}
		d, err := time.ParseDuration(f.in)
		if err != nil {
			return nil, fmt.Errorf("core: rule %q: bad %s %q: %w", rule, f.name, f.in, err)
		}
		*f.out = d
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: rule %q: %w", rule, err)
	}
	return cfg, nil
}

// RuleFile is a JSON document holding both rule groups of the dual
// pipeline: LogQL rules for the Ruler and PromQL rules for vmalert.
type RuleFile struct {
	LogRules    []RuleConfig `json:"log_rules,omitempty"`
	MetricRules []RuleConfig `json:"metric_rules,omitempty"`
}

func (rc RuleConfig) holdDuration() (time.Duration, error) {
	if rc.For == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(rc.For)
	if err != nil {
		return 0, fmt.Errorf("core: rule %q: bad for %q: %w", rc.Alert, rc.For, err)
	}
	return d, nil
}

// ParseRules converts a rule file into the typed rule slices. Rule
// expressions are validated by the respective engines at Pipeline
// construction.
func ParseRules(rf RuleFile) ([]ruler.Rule, []vmalert.Rule, error) {
	logRules, err := parseRuleGroup(rf.LogRules)
	if err != nil {
		return nil, nil, err
	}
	metricRules, err := parseRuleGroup(rf.MetricRules)
	if err != nil {
		return nil, nil, err
	}
	return logRules, metricRules, nil
}

func parseRuleGroup(rcs []RuleConfig) ([]ruler.Rule, error) {
	rules := make([]ruler.Rule, 0, len(rcs))
	for _, rc := range rcs {
		d, err := rc.holdDuration()
		if err != nil {
			return nil, err
		}
		ac, err := rc.Anomaly.toConfig(rc.Alert)
		if err != nil {
			return nil, err
		}
		rules = append(rules, ruler.Rule{
			Name: rc.Alert, Expr: rc.Expr, For: d,
			Labels: rc.Labels, Annotations: rc.Annotations, Anomaly: ac,
		})
	}
	return rules, nil
}

// LoadRules reads and parses a JSON rule file.
func LoadRules(path string) ([]ruler.Rule, []vmalert.Rule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var rf RuleFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, nil, fmt.Errorf("core: %s: %w", path, err)
	}
	return ParseRules(rf)
}
