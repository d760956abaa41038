package promtext

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"shastamon/internal/labels"
)

func TestWriteParseRoundTrip(t *testing.T) {
	in := []Family{
		{
			Name: "node_cpu_seconds_total", Help: "CPU seconds.", Type: "counter",
			Metrics: []Metric{
				{Name: "node_cpu_seconds_total", Labels: labels.FromStrings("cpu", "0", "mode", "idle"), Value: 123.5},
				{Name: "node_cpu_seconds_total", Labels: labels.FromStrings("cpu", "1", "mode", "idle"), Value: 99},
			},
		},
		{
			Name: "up", Type: "gauge",
			Metrics: []Metric{{Name: "up", Value: 1, Timestamp: 1646272077000}},
		},
	}
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("families: %d", len(out))
	}
	if out[0].Help != "CPU seconds." || out[0].Type != "counter" {
		t.Fatalf("meta: %+v", out[0])
	}
	if len(out[0].Metrics) != 2 || out[0].Metrics[0].Labels.Get("cpu") != "0" {
		t.Fatalf("metrics: %+v", out[0].Metrics)
	}
	if out[1].Metrics[0].Timestamp != 1646272077000 {
		t.Fatalf("ts: %+v", out[1].Metrics[0])
	}
}

func TestParseBareSample(t *testing.T) {
	fams, err := Parse(strings.NewReader("metric_without_meta 42\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 1 || fams[0].Metrics[0].Value != 42 {
		t.Fatalf("%+v", fams)
	}
}

func TestParseSpecialValues(t *testing.T) {
	fams, err := Parse(strings.NewReader("a +Inf\nb -Inf\nc NaN\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(fams[0].Metrics[0].Value, 1) || !math.IsInf(fams[1].Metrics[0].Value, -1) || !math.IsNaN(fams[2].Metrics[0].Value) {
		t.Fatalf("%+v", fams)
	}
}

func TestParseEscapedLabelValue(t *testing.T) {
	fams, err := Parse(strings.NewReader(`m{msg="line\nbreak \"q\""} 1` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if fams[0].Metrics[0].Labels.Get("msg") != "line\nbreak \"q\"" {
		t.Fatalf("%q", fams[0].Metrics[0].Labels.Get("msg"))
	}
}

// TestHistogramRoundTrip writes a histogram family the way the obs layer
// renders one — _bucket rows (including le="+Inf"), _sum and _count under
// a single TYPE histogram family — and asserts Parse recovers every sample
// exactly: names, label sets (with escaping) and values.
func TestHistogramRoundTrip(t *testing.T) {
	const base = "shastamon_query_duration_seconds"
	bucket := func(le string, engine string, v float64) Metric {
		return Metric{
			Name:   base + "_bucket",
			Labels: labels.FromStrings("engine", engine, "le", le),
			Value:  v,
		}
	}
	in := []Family{{
		Name: base, Help: "Query latency.", Type: "histogram",
		Metrics: []Metric{
			bucket("0.005", `logql "fast"`, 3),
			bucket("0.25", `logql "fast"`, 7),
			bucket("+Inf", `logql "fast"`, 9),
			bucket("0.005", "promql\nv2\\beta", 1),
			bucket("+Inf", "promql\nv2\\beta", 4),
			{Name: base + "_sum", Labels: labels.FromStrings("engine", `logql "fast"`), Value: 1.75},
			{Name: base + "_count", Labels: labels.FromStrings("engine", `logql "fast"`), Value: 9},
			{Name: base + "_sum", Labels: labels.FromStrings("engine", "promql\nv2\\beta"), Value: 0.375},
			{Name: base + "_count", Labels: labels.FromStrings("engine", "promql\nv2\\beta"), Value: 4},
		},
	}}
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Parse groups samples by their own name, so the one written family
	// comes back as _bucket/_sum/_count families (and regrouping reorders
	// the flattened list); compare as a multiset keyed on name+labels.
	key := func(m Metric) string { return m.Name + m.Labels.String() }
	got := map[string]float64{}
	for _, m := range Samples(out) {
		got[key(m)] = m.Value
	}
	want := in[0].Metrics
	if len(got) != len(want) {
		t.Fatalf("samples: got %d, want %d", len(got), len(want))
	}
	for _, w := range want {
		v, ok := got[key(w)]
		if !ok || v != w.Value {
			t.Fatalf("sample %+v: got %v (present=%v)", w, v, ok)
		}
	}
	// le="+Inf" must survive as the literal string, not a parsed float.
	for _, m := range Samples(out) {
		if le := m.Labels.Get("le"); le != "" && le != "+Inf" && le != "0.005" && le != "0.25" {
			t.Fatalf("unexpected le label %q", le)
		}
	}
	if _, ok := got[key(want[2])]; !ok {
		t.Fatal("le=\"+Inf\" bucket did not round-trip")
	}
	// The histogram TYPE line is keyed on the base name.
	var buf2 bytes.Buffer
	_ = Write(&buf2, in)
	if !strings.Contains(buf2.String(), "# TYPE "+base+" histogram") {
		t.Fatalf("missing TYPE line:\n%s", buf2.String())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"1leading_digit 1\n",
		"m{unterminated=\"x\" 1\n",
		"m{a=b} 1\n",
		"m notanumber\n",
		"m 1 notatimestamp\n",
		"m\n",
	}
	for _, in := range bad {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("no error for %q", in)
		}
	}
}

// Regression: m{a="1",a="2"} used to parse into a series that the
// matcher {a="2"} never selects. Prometheus refuses such a sample, and
// so does the exemplar's label block.
func TestParseRejectsRepeatedLabelName(t *testing.T) {
	for _, in := range []string{
		`m{a="1",a="2"} 1`,
		`m{b="x",a="1",a="1"} 1`,
		`m{le="1"} 2 # {trace_id="t",trace_id="u"} 0.5`,
	} {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("no error for %q", in)
		}
	}
}

func TestIgnoresUnknownComments(t *testing.T) {
	fams, err := Parse(strings.NewReader("# EOF\n# random comment\nm 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 1 {
		t.Fatalf("%+v", fams)
	}
}

func TestSamplesFlatten(t *testing.T) {
	fams := []Family{
		{Name: "a", Metrics: []Metric{{Name: "a", Value: 1}}},
		{Name: "b", Metrics: []Metric{{Name: "b", Value: 2}, {Name: "b", Value: 3}}},
	}
	if got := Samples(fams); len(got) != 3 {
		t.Fatalf("%+v", got)
	}
}

// Regression: a '}' inside a quoted value does not end the label block,
// on the sample or on its exemplar.
func TestLabelValueHoldsBrace(t *testing.T) {
	for name, in := range map[string]Metric{
		"sample": {Name: "m", Labels: labels.FromStrings("alpha", "a}b", "beta", "c"), Value: 1},
		"exemplar": {Name: "m", Labels: labels.FromStrings("le", "1"), Value: 2,
			Exemplar: &Exemplar{Labels: labels.FromStrings("trace_id", "t}1,x=\"y\""), Value: 0.5}},
	} {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Write(&buf, []Family{{Name: "m", Metrics: []Metric{in}}}); err != nil {
				t.Fatal(err)
			}
			text := buf.String()
			out, err := Parse(&buf)
			if err != nil {
				t.Fatalf("Parse(%q): %v", text, err)
			}
			got := Samples(out)
			if len(got) != 1 || !reflect.DeepEqual(got[0], in) {
				t.Fatalf("Parse(%q) = %+v, want %+v", text, got, in)
			}
		})
	}
}

// Property: any label set of safe strings round-trips through the text
// format.
func TestPropertyLabelRoundTrip(t *testing.T) {
	f := func(v1, v2 string) bool {
		ls := labels.FromStrings("alpha", v1, "beta", v2)
		in := []Family{{Name: "m", Metrics: []Metric{{Name: "m", Labels: ls, Value: 1}}}}
		var buf bytes.Buffer
		if err := Write(&buf, in); err != nil {
			return false
		}
		out, err := Parse(&buf)
		if err != nil {
			return false
		}
		return len(out) == 1 && out[0].Metrics[0].Labels.Equal(ls)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkParse(b *testing.B) {
	var buf bytes.Buffer
	fams := make([]Family, 0, 10)
	for i := 0; i < 10; i++ {
		f := Family{Name: "node_metric", Type: "gauge"}
		for j := 0; j < 100; j++ {
			f.Metrics = append(f.Metrics, Metric{
				Name:   "node_metric",
				Labels: labels.FromStrings("cpu", "0", "mode", "idle"),
				Value:  float64(j),
			})
		}
		fams = append(fams, f)
	}
	_ = Write(&buf, fams)
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestHelpEscaping(t *testing.T) {
	in := []Family{{
		Name: "m", Help: "line one\nline two \\ backslash", Type: "gauge",
		Metrics: []Metric{{Name: "m", Value: 1}},
	}}
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `# HELP m line one\nline two \\ backslash`) {
		t.Fatalf("%s", buf.String())
	}
	// Parse undoes the escaping.
	out, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Help != in[0].Help {
		t.Fatalf("help = %q, want %q", out[0].Help, in[0].Help)
	}
}
