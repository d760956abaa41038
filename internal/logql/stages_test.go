package logql

import (
	"testing"

	"shastamon/internal/labels"
)

func TestLineFilters(t *testing.T) {
	base := labels.FromStrings("a", "b")
	cases := []struct {
		op   string
		arg  string
		line string
		keep bool
	}{
		{"|=", "leak", "a leak was detected", true},
		{"|=", "leak", "all dry", false},
		{"!=", "leak", "all dry", true},
		{"!=", "leak", "a leak", false},
		{"|~", "x1[0-9]+", "at x1002c1", true},
		{"|~", "x1[0-9]+", "at y2", false},
		{"!~", "x1[0-9]+", "at y2", true},
	}
	for _, c := range cases {
		st, err := newLineFilter(c.op, c.arg)
		if err != nil {
			t.Fatal(err)
		}
		_, _, keep := st.Process(c.line, base)
		if keep != c.keep {
			t.Errorf("%s %q on %q: keep=%v", c.op, c.arg, c.line, keep)
		}
	}
}

func TestJSONStageExtractsSnakeCase(t *testing.T) {
	line := `{"Severity":"Warning","MessageId":"CrayAlerts.1.0.CabinetLeakDetected","Message":"Sensor 'A' detected a leak."}`
	_, lbls, keep := jsonStage{}.Process(line, labels.FromStrings("cluster", "perlmutter"))
	if !keep {
		t.Fatal("dropped")
	}
	if lbls.Get("severity") != "Warning" {
		t.Fatalf("severity: %v", lbls)
	}
	if lbls.Get("message_id") != "CrayAlerts.1.0.CabinetLeakDetected" {
		t.Fatalf("message_id: %v", lbls)
	}
	if lbls.Get("cluster") != "perlmutter" {
		t.Fatal("stream label lost")
	}
}

func TestJSONStageNested(t *testing.T) {
	line := `{"Oem":{"Sensor":{"Reading":42.5}},"Ok":true,"Tags":["a","b"],"Null":null}`
	_, lbls, _ := jsonStage{}.Process(line, nil)
	if lbls.Get("oem_sensor_reading") != "42.5" {
		t.Fatalf("nested: %v", lbls)
	}
	if lbls.Get("ok") != "true" {
		t.Fatalf("bool: %v", lbls)
	}
	if lbls.Get("tags") != `["a","b"]` {
		t.Fatalf("array: %v", lbls)
	}
	if lbls.Has("null") {
		t.Fatal("null extracted")
	}
}

func TestJSONStageDoesNotOverwrite(t *testing.T) {
	line := `{"cluster":"other"}`
	_, lbls, _ := jsonStage{}.Process(line, labels.FromStrings("cluster", "perlmutter"))
	if lbls.Get("cluster") != "perlmutter" {
		t.Fatalf("stream label overwritten: %v", lbls)
	}
}

func TestJSONStageBadLine(t *testing.T) {
	_, lbls, keep := jsonStage{}.Process("not json", nil)
	if !keep || lbls.Get("__error__") != "JSONParserErr" {
		t.Fatalf("bad line: keep=%v labels=%v", keep, lbls)
	}
}

func TestToSnake(t *testing.T) {
	cases := map[string]string{
		"Severity":       "severity",
		"MessageId":      "message_id",
		"EventTimestamp": "event_timestamp",
		"already_snake":  "already_snake",
		"with-dash":      "with_dash",
		"A":              "a",
		"ABC":            "abc",
		"@odata.id":      "_odata_id",
	}
	for in, want := range cases {
		if got := toSnake(in); got != want {
			t.Errorf("toSnake(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestLogfmtStage(t *testing.T) {
	line := `level=info msg="switch state changed" xname=x1002c1r7b0 latency=12.5`
	_, lbls, keep := logfmtStage{}.Process(line, labels.FromStrings("app", "fm"))
	if !keep {
		t.Fatal("dropped")
	}
	if lbls.Get("msg") != "switch state changed" {
		t.Fatalf("quoted value: %v", lbls)
	}
	if lbls.Get("xname") != "x1002c1r7b0" || lbls.Get("latency") != "12.5" {
		t.Fatalf("labels: %v", lbls)
	}
}

func TestPatternStagePaperTemplate(t *testing.T) {
	// Fig. 8's pattern on the Fig. 7 sample event.
	st, err := newPatternStage("[<severity>] problem:<problem>, xname:<xname>, state:<state>")
	if err != nil {
		t.Fatal(err)
	}
	line := "[critical] problem:fm_switch_offline, xname:x1002c1r7b0, state:UNKNOWN"
	_, lbls, keep := st.Process(line, nil)
	if !keep {
		t.Fatal("dropped")
	}
	want := map[string]string{
		"severity": "critical",
		"problem":  "fm_switch_offline",
		"xname":    "x1002c1r7b0",
		"state":    "UNKNOWN",
	}
	for k, v := range want {
		if lbls.Get(k) != v {
			t.Errorf("%s = %q, want %q (%v)", k, lbls.Get(k), v, lbls)
		}
	}
}

func TestPatternStageNoMatch(t *testing.T) {
	st, _ := newPatternStage("[<severity>] problem:<problem>")
	_, lbls, keep := st.Process("unrelated line", nil)
	if !keep {
		t.Fatal("non-matching line dropped")
	}
	if lbls.Get("__error__") != "PatternParserErr" {
		t.Fatalf("labels: %v", lbls)
	}
}

func TestPatternStageDiscard(t *testing.T) {
	st, err := newPatternStage("<_> took <ms>ms")
	if err != nil {
		t.Fatal(err)
	}
	_, lbls, _ := st.Process("request /api/foo took 25ms", nil)
	if lbls.Get("ms") != "25" {
		t.Fatalf("ms: %v", lbls)
	}
	if lbls.Has("_") {
		t.Fatal("discard capture leaked")
	}
}

func TestPatternStageErrors(t *testing.T) {
	for _, tpl := range []string{"no captures", "<unclosed", "<>", "<bad name>"} {
		if _, err := newPatternStage(tpl); err == nil {
			t.Errorf("no error for %q", tpl)
		}
	}
}

func TestRegexpStage(t *testing.T) {
	st, err := newRegexpStage(`nid(?P<nid>\d+)`)
	if err != nil {
		t.Fatal(err)
	}
	_, lbls, _ := st.Process("error on nid001234 link", nil)
	if lbls.Get("nid") != "001234" {
		t.Fatalf("nid: %v", lbls)
	}
	if _, err := newRegexpStage(`no captures`); err == nil {
		t.Fatal("regexp without captures accepted")
	}
	if _, err := newRegexpStage(`(`); err == nil {
		t.Fatal("bad regexp accepted")
	}
}

func TestLabelFilterString(t *testing.T) {
	m := labels.MustMatcher(labels.MatchEqual, "severity", "Warning")
	st := &labelFilterStage{matcher: m}
	lbls := labels.FromStrings("severity", "Warning")
	if _, _, keep := st.Process("l", lbls); !keep {
		t.Fatal("should keep")
	}
	if _, _, keep := st.Process("l", labels.FromStrings("severity", "OK")); keep {
		t.Fatal("should drop")
	}
}

func TestLabelFilterNumeric(t *testing.T) {
	st := &labelFilterStage{name: "value", op: ">", num: 5}
	if _, _, keep := st.Process("l", labels.FromStrings("value", "10")); !keep {
		t.Fatal("10 > 5 should keep")
	}
	if _, _, keep := st.Process("l", labels.FromStrings("value", "2")); keep {
		t.Fatal("2 > 5 should drop")
	}
	// Non-numeric label fails the filter.
	if _, _, keep := st.Process("l", labels.FromStrings("value", "NaNope")); keep {
		t.Fatal("non-numeric should drop")
	}
}

func TestLineFormatStage(t *testing.T) {
	st := &lineFormatStage{template: "{{.severity}}: {{.message}}"}
	lbls := labels.FromStrings("severity", "Warning", "message", "leak detected")
	line, _, _ := st.Process("original", lbls)
	if line != "Warning: leak detected" {
		t.Fatalf("line: %q", line)
	}
}

func TestLabelFormatRename(t *testing.T) {
	st := &labelFormatStage{dst: "location", src: "Context"}
	_, lbls, _ := st.Process("l", labels.FromStrings("Context", "x1203c1b0"))
	if lbls.Get("location") != "x1203c1b0" || lbls.Has("Context") {
		t.Fatalf("rename: %v", lbls)
	}
}

func TestLabelFormatTemplate(t *testing.T) {
	st := &labelFormatStage{dst: "id", template: "{{.a}}-{{.b}}"}
	_, lbls, _ := st.Process("l", labels.FromStrings("a", "x", "b", "y"))
	if lbls.Get("id") != "x-y" {
		t.Fatalf("template: %v", lbls)
	}
}

func TestRunPipelineShortCircuits(t *testing.T) {
	f1, _ := newLineFilter("|=", "present")
	f2, _ := newLineFilter("|=", "absent")
	_, _, keep := runPipeline([]Stage{f1, f2}, "present only", nil)
	if keep {
		t.Fatal("should drop at second filter")
	}
}
