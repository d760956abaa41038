package promtext

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"shastamon/internal/labels"
)

// FuzzWriteParseRoundTrip checks the writer and the reader against each
// other: Parse never panics, a family built from arbitrary label values
// survives Write then Parse unchanged, and any document Parse accepts
// re-renders to a fixpoint.
func FuzzWriteParseRoundTrip(f *testing.F) {
	f.Add(`m{alpha="a}b",beta="c"} 1`, "a}b", "c", 1.0, int64(0))
	f.Add(`m{le="1"} 2 # {trace_id="t}1"} 0.5 1646272077000`, `t}1,x="y"`, "", 2.0, int64(1646272077000))
	f.Add("# HELP m line one\\nline two \\\\ backslash\n# TYPE m gauge\nm 1", "line\nbreak", `"q"\`, math.Inf(-1), int64(-5))
	f.Add(`m{a="x\y",b=""} NaN 7`, `\`, "}", math.NaN(), int64(7))
	f.Add(`m{a="1",a="2"} 1`, "1", "2", 1.0, int64(0))
	f.Fuzz(func(t *testing.T, doc, v1, v2 string, value float64, ts int64) {
		// Any accepted document re-renders to a fixpoint.
		if fams, err := Parse(strings.NewReader(doc)); err == nil {
			first := render(t, fams)
			again, err := Parse(strings.NewReader(first))
			if err != nil {
				t.Fatalf("Parse(Write(Parse(%q))) = %v on %q", doc, err, first)
			}
			if second := render(t, again); second != first {
				t.Fatalf("no fixpoint for %q:\n%q\n%q", doc, first, second)
			}
		}

		in := Metric{
			Name:      "m",
			Labels:    labels.FromStrings("alpha", v1, "beta", v2),
			Value:     value,
			Timestamp: ts,
			Exemplar:  &Exemplar{Labels: labels.FromStrings("trace_id", v2), Value: value, Timestamp: ts},
		}
		text := render(t, []Family{{Name: "m", Type: "gauge", Metrics: []Metric{in}}})
		out, err := Parse(strings.NewReader(text))
		if err != nil {
			t.Fatalf("Parse(%q): %v", text, err)
		}
		got := Samples(out)
		if len(got) != 1 || len(out) != 1 || out[0].Type != "gauge" {
			t.Fatalf("Parse(%q) = %+v", text, out)
		}
		if math.IsNaN(value) {
			// NaN never equals itself; compare the rest with it replaced.
			if !math.IsNaN(got[0].Value) || !math.IsNaN(got[0].Exemplar.Value) {
				t.Fatalf("Parse(%q) lost NaN: %+v", text, got[0])
			}
			in.Value, got[0].Value = 0, 0
			in.Exemplar.Value, got[0].Exemplar.Value = 0, 0
		}
		if !reflect.DeepEqual(got[0], in) {
			t.Fatalf("Parse(%q) = %+v, want %+v", text, got[0], in)
		}
	})
}

func render(t *testing.T, fams []Family) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, fams); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}
