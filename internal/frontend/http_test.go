package frontend

import (
	"encoding/json"
	"math"
	"net/url"
	"strconv"
	"testing"
	"time"
)

// The two wire bindings of the query API: Loki's integer nanoseconds
// over a nanosecond engine, Prometheus' float seconds over a
// millisecond engine.
var (
	lokiAPI = API[any]{Name: "logql", Unit: time.Nanosecond}
	promAPI = API[any]{Name: "promql", Unit: time.Millisecond, Seconds: true}
)

func TestParseTimeParam(t *testing.T) {
	for _, c := range []struct {
		api  API[any]
		in   string
		want int64
		ok   bool
	}{
		{lokiAPI, "1500000000000000000", 1500000000000000000, true},
		{lokiAPI, "-5", -5, true},
		{lokiAPI, "2022-03-03T01:47:57Z", 1646272077000000000, true},
		{lokiAPI, "2022-03-03T01:47:57.25+01:00", 1646268477250000000, true},
		{lokiAPI, "1646272077.5", 0, false}, // Loki numbers are integer ns
		{lokiAPI, "9223372036854775808", 0, false},
		{lokiAPI, "9999-12-31T00:00:00Z", 0, false},
		{lokiAPI, "yesterday-ish", 0, false},
		{promAPI, "1646272077.5", 1646272077500, true},
		{promAPI, "1646272077.001", 1646272077001, true},
		{promAPI, "1646272077.0019", 1646272077001, true},
		{promAPI, "-0.0005", -1, true},
		{promAPI, "1e3", 1000000, true},
		{promAPI, "2022-03-03T01:47:57Z", 1646272077000, true},
		{promAPI, "NaN", 0, false},
		{promAPI, "-Inf", 0, false},
		{promAPI, "1e300", 0, false},
		{promAPI, "9999-12-31T00:00:00Z", 0, false},
		{promAPI, "yesterday-ish", 0, false},
	} {
		got, err := c.api.parseTime(url.Values{"time": {c.in}}, "time", 0)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("%s %q: %d %v, want %d", c.api.Name, c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("%s %q accepted as %d", c.api.Name, c.in, got)
		}
	}
	for _, a := range []API[any]{lokiAPI, promAPI} {
		before := time.Now().Add(-time.Hour).UnixNano() / int64(a.Unit)
		got, err := a.parseTime(url.Values{}, "start", -time.Hour)
		if after := time.Now().Add(-time.Hour).UnixNano() / int64(a.Unit); err != nil || got < before || got > after {
			t.Errorf("%s empty start: %d %v, want now-1h in [%d, %d]", a.Name, got, err, before, after)
		}
	}
}

// FuzzQueryParams checks the range parameters of both wire bindings:
// random strings never panic; every accepted range has finite bounds, a
// step of at least one engine unit and at most maxPoints steps; every
// accepted numeric time, written back the way the API writes times,
// decodes to itself.
func FuzzQueryParams(f *testing.F) {
	for _, seed := range [][3]string{
		{"0", "3600", "0.001"},
		{"0", "11000", "1"},
		{"NaN", "60", "15"},
		{"1646272077.001", "1646272078", "0.0005"},
		{"2022-03-03T01:47:57Z", "", "30"},
		{"1e300", "-Inf", "NaN"},
		{"9223372036854775807", "-9223372036854775808", "1e-9"},
		{"-0.0005", "0x1p-2", "1e3"},
		{"", "", ""},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	f.Fuzz(func(t *testing.T, start, end, step string) {
		v := url.Values{"start": {start}, "end": {end}, "step": {step}}
		for _, a := range []API[any]{lokiAPI, promAPI} {
			s, errS := a.parseTime(v, "start", -time.Hour)
			e, errE := a.parseTime(v, "end", 0)
			for _, p := range []struct {
				raw string
				got int64
				err error
			}{{start, s, errS}, {end, e, errE}} {
				if p.err != nil || p.raw == "" {
					continue
				}
				if x, err := strconv.ParseFloat(p.raw, 64); err == nil && (math.IsNaN(x) || math.IsInf(x, 0)) {
					t.Fatalf("%s accepted non-finite %q as %d", a.Name, p.raw, p.got)
				}
				var wire string
				if _, err := strconv.ParseInt(p.raw, 10, 64); err == nil && !a.Seconds {
					wire = strconv.FormatInt(p.got, 10)
				} else if _, err := strconv.ParseFloat(p.raw, 64); err == nil && a.Seconds {
					b, _ := json.Marshal(a.point(p.got, 0)[0])
					wire = string(b)
				} else {
					continue // RFC3339
				}
				if back, err := a.parseTime(url.Values{"t": {wire}}, "t", 0); err != nil || back != p.got {
					t.Fatalf("%s %q decodes to %d, written back as %s decodes to %d (%v)", a.Name, p.raw, p.got, wire, back, err)
				}
			}
			if errS != nil || errE != nil {
				continue
			}
			d, err := a.parseStep(v, s, e)
			if err != nil {
				continue
			}
			if d < a.Unit {
				t.Fatalf("%s step %q accepted as %v, below %v", a.Name, step, d, a.Unit)
			}
			if e > s && uint64(e-s)/uint64(d/a.Unit) > maxPoints {
				t.Fatalf("%s range [%d, %d] step %v accepted with more than %d steps", a.Name, s, e, d, maxPoints)
			}
		}
	})
}
