package frontend_test

import (
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"shastamon/internal/frontend"
	"shastamon/internal/labels"
	"shastamon/internal/logql"
	"shastamon/internal/loki"
	"shastamon/internal/promql"
	"shastamon/internal/tsdb"
)

// FuzzQueryDifferential is the query half of the differential oracle: a
// seed draws a small corpus of log streams and metric series plus random
// queries from the supported LogQL and PromQL grammar, and every query is
// checked at instant and over a range against a naive evaluator that scans
// the raw corpus and shares no engine code. Range queries run
// monolithically, through a frontend cold and warm, with shard fan-out,
// and with a mutable head that grows between two runs; every path must
// equal the oracle exactly. Values are integers, so every float sum is
// exact in any order. Odd seeds also put NaN values into the corpus.
func FuzzQueryDifferential(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		withNaN := seed&1 == 1
		checkLogQL(t, rand.New(rand.NewSource(rng.Int63())), withNaN)
		checkPromQL(t, rand.New(rand.NewSource(rng.Int63())), withNaN)
	})
}

// corpusEnd is where the initial corpus stops; the mutable-head phase
// appends up to headEnd.
const (
	corpusEnd = 30 * time.Minute
	headEnd   = corpusEnd + 5*time.Minute
)

// sameValue is exact equality, with NaN equal to NaN.
func sameValue(a, b float64) bool { return a == b || (a != a && b != b) }

func fmtValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// oracleSample is one naive-evaluator result sample.
type oracleSample struct {
	lbls labels.Labels
	v    float64
}

func diffVector(got frontend.Vector, ts int64, want []oracleSample) string {
	ok := len(got) == len(want)
	for i := 0; ok && i < len(got); i++ {
		ok = got[i].Labels.String() == want[i].lbls.String() && got[i].T == ts && sameValue(got[i].V, want[i].v)
	}
	if ok {
		return ""
	}
	var b strings.Builder
	b.WriteString("\n got:")
	for _, s := range got {
		fmt.Fprintf(&b, " %s@%d=%s", s.Labels, s.T, fmtValue(s.V))
	}
	b.WriteString("\nwant:")
	for _, s := range want {
		fmt.Fprintf(&b, " %s@%d=%s", s.lbls, ts, fmtValue(s.v))
	}
	return b.String()
}

// oracleRange runs an instant oracle at every step and collects series
// ordered by label string.
func oracleRange(start, end, step int64, instant func(ts int64) []oracleSample) frontend.Matrix {
	byKey := map[string]*frontend.Series{}
	for ts := start; ts <= end; ts += step {
		for _, s := range instant(ts) {
			k := s.lbls.String()
			if byKey[k] == nil {
				byKey[k] = &frontend.Series{Labels: s.lbls}
			}
			byKey[k].Points = append(byKey[k].Points, frontend.Point{T: ts, V: s.v})
		}
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var m frontend.Matrix
	for _, k := range keys {
		m = append(m, *byKey[k])
	}
	return m
}

func diffMatrix(got, want frontend.Matrix) string {
	ok := len(got) == len(want)
	for i := 0; ok && i < len(got); i++ {
		ok = got[i].Labels.String() == want[i].Labels.String() && len(got[i].Points) == len(want[i].Points)
		for j := 0; ok && j < len(got[i].Points); j++ {
			g, w := got[i].Points[j], want[i].Points[j]
			ok = g.T == w.T && sameValue(g.V, w.V)
		}
	}
	if ok {
		return ""
	}
	render := func(m frontend.Matrix) string {
		var b strings.Builder
		for _, s := range m {
			fmt.Fprintf(&b, "\n  %s:", s.Labels)
			for _, p := range s.Points {
				fmt.Fprintf(&b, " %d=%s", p.T, fmtValue(p.V))
			}
		}
		return b.String()
	}
	return "\n got:" + render(got) + "\nwant:" + render(want)
}

// ---- naive shared pieces ----

// matcher is the oracle's own selector term.
type matcher struct{ name, op, value string }

func (m matcher) String() string { return fmt.Sprintf("%s%s%q", m.name, m.op, m.value) }

func (m matcher) matches(ls labels.Labels) bool {
	v := ""
	for _, l := range ls {
		if l.Name == m.name {
			v = l.Value
		}
	}
	switch m.op {
	case "=":
		return v == m.value
	case "!=":
		return v != m.value
	default: // =~
		return regexp.MustCompile("^(?:" + m.value + ")$").MatchString(v)
	}
}

func matchAll(ms []matcher, ls labels.Labels) bool {
	for _, m := range ms {
		if !m.matches(ls) {
			return false
		}
	}
	return true
}

// absentLabels are the equality matchers' name/value pairs.
func absentLabels(ms []matcher) labels.Labels {
	m := map[string]string{}
	for _, mt := range ms {
		if mt.op == "=" {
			m[mt.name] = mt.value
		}
	}
	return labels.FromMap(m)
}

// groupOf applies a by/without clause by hand, after dropping drop.
func groupOf(ls labels.Labels, by []string, without bool, drop string) labels.Labels {
	listed := func(name string) bool {
		for _, b := range by {
			if b == name {
				return true
			}
		}
		return false
	}
	m := map[string]string{}
	for _, l := range ls {
		if l.Name == drop {
			continue
		}
		if (without && !listed(l.Name)) || (!without && listed(l.Name)) {
			m[l.Name] = l.Value
		}
	}
	return labels.FromMap(m)
}

// extremum is the minimum (sign -1) or maximum (sign 1) of the non-NaN
// values, NaN when there are none.
func extremum(vals []float64, sign float64) float64 {
	out := math.NaN()
	for _, v := range vals {
		if v != v {
			continue
		}
		if out != out || (sign > 0 && v > out) || (sign < 0 && v < out) {
			out = v
		}
	}
	return out
}

// aggregate is the oracle's vector aggregation: groups in label-string
// order, members in input order, NaN ranked below every number by
// topk/bottomk.
func aggregate(in []oracleSample, op string, k int, by []string, without bool, drop string) []oracleSample {
	type group struct {
		lbls    labels.Labels
		members []oracleSample
	}
	groups := map[string]*group{}
	for _, s := range in {
		gl := groupOf(s.lbls, by, without, drop)
		key := gl.String()
		if groups[key] == nil {
			groups[key] = &group{lbls: gl}
		}
		groups[key].members = append(groups[key].members, s)
	}
	keys := make([]string, 0, len(groups))
	for key := range groups {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var out []oracleSample
	for _, key := range keys {
		g := groups[key]
		vals := make([]float64, len(g.members))
		sum := 0.0
		for i, m := range g.members {
			vals[i] = m.v
			sum += m.v
		}
		switch op {
		case "sum":
			out = append(out, oracleSample{g.lbls, sum})
		case "avg":
			out = append(out, oracleSample{g.lbls, sum / float64(len(vals))})
		case "count":
			out = append(out, oracleSample{g.lbls, float64(len(vals))})
		case "min":
			out = append(out, oracleSample{g.lbls, extremum(vals, -1)})
		case "max":
			out = append(out, oracleSample{g.lbls, extremum(vals, 1)})
		case "topk", "bottomk":
			ranked := append([]oracleSample(nil), g.members...)
			sort.SliceStable(ranked, func(i, j int) bool {
				a, b := ranked[i].v, ranked[j].v
				if a != a || b != b {
					return b != b && a == a
				}
				if op == "topk" {
					return a > b
				}
				return a < b
			})
			if len(ranked) > k {
				ranked = ranked[:k]
			}
			out = append(out, ranked...)
		}
	}
	return out
}

// compare applies a comparison filter, keeping samples unchanged.
func compare(in []oracleSample, op string, thr float64, scalarLeft bool) []oracleSample {
	var out []oracleSample
	for _, s := range in {
		a, b := s.v, thr
		if scalarLeft {
			a, b = thr, s.v
		}
		var keep bool
		switch op {
		case ">":
			keep = a > b
		case ">=":
			keep = a >= b
		case "<":
			keep = a < b
		case "<=":
			keep = a <= b
		case "==":
			keep = a == b
		case "!=":
			keep = a != b
		}
		if keep {
			out = append(out, s)
		}
	}
	return out
}

func isComparison(op string) bool {
	return op == ">" || op == ">=" || op == "<" || op == "<=" || op == "==" || op == "!="
}

var (
	cmpOps   = []string{">", ">=", "<", "<=", "==", "!="}
	arithOps = []string{"+", "-", "*", "/"}
)

// grouping draws an optional by/without clause over a subset of names.
func grouping(rng *rand.Rand, names []string) (by []string, without bool, render string) {
	if rng.Intn(3) == 0 {
		return nil, false, ""
	}
	for _, n := range names {
		if rng.Intn(2) == 0 {
			by = append(by, n)
		}
	}
	if len(by) == 0 {
		by = []string{names[rng.Intn(len(names))]}
	}
	without = rng.Intn(2) == 0
	kw := "by"
	if without {
		kw = "without"
	}
	return by, without, fmt.Sprintf(" %s (%s)", kw, strings.Join(by, ", "))
}

// rangeWindow draws a range query window and step inside [lo, hi]
// seconds.
func rangeWindow(rng *rand.Rand, lo, hi int64) (start, end, step int64) {
	steps := []int64{15, 30, 45, 60, 90}
	step = steps[rng.Intn(len(steps))]
	start = lo + rng.Int63n((hi-lo)/2)
	end = start + rng.Int63n(hi-start+1)
	return start, end, step
}

// ---- LogQL ----

type logLine struct {
	ts   int64 // ns
	line string
}

type logStream struct {
	lbls    labels.Labels
	entries []logLine
}

type logQuery struct {
	src       string
	sel       []matcher
	filter    string
	logfmt    bool
	op        string
	unwrap    bool
	interval  int64 // ns
	agg       string
	k         int
	by        []string
	without   bool
	arith     string // + - * / against scalar, on its left with arithLeft
	scalar    float64
	arithLeft bool
	cmp       string
	thr       float64
	cmpLeft   bool // the threshold is the comparison's left operand
}

// genLogLine renders a logfmt line with integer (or NaN) fields.
func genLogLine(rng *rand.Rand, withNaN bool) string {
	v := strconv.Itoa(rng.Intn(21))
	if withNaN && rng.Intn(8) == 0 {
		v = "NaN"
	}
	msg := "tick"
	if rng.Intn(6) == 0 {
		msg = "boom"
	}
	return fmt.Sprintf("level=%s v=%s msg=%s", []string{"info", "error"}[rng.Intn(2)], v, msg)
}

func genLogCorpus(rng *rand.Rand, withNaN bool) []logStream {
	var streams []logStream
	for i := 0; i < 12; i++ {
		s := logStream{lbls: labels.FromStrings("app", fmt.Sprintf("a%d", i%4), "cluster", fmt.Sprintf("c%d", i%3))}
		for ts := rng.Int63n(60); ts <= int64(corpusEnd/time.Second); ts += 5 + rng.Int63n(90) {
			s.entries = append(s.entries, logLine{ts: ts * 1e9, line: genLogLine(rng, withNaN)})
		}
		streams = append(streams, s)
	}
	return streams
}

func genLogQuery(rng *rand.Rand) logQuery {
	var q logQuery
	switch rng.Intn(5) {
	case 0:
	case 1:
		q.sel = []matcher{{"app", "=", fmt.Sprintf("a%d", rng.Intn(5))}}
	case 2:
		q.sel = []matcher{{"cluster", "=", fmt.Sprintf("c%d", rng.Intn(3))}}
	case 3:
		q.sel = []matcher{{"cluster", "!=", "c0"}}
	case 4:
		q.sel = []matcher{{"app", "=~", "a[01]"}, {"cluster", "=", fmt.Sprintf("c%d", rng.Intn(3))}}
	}
	ops := []string{"count_over_time", "rate", "bytes_over_time", "bytes_rate", "absent_over_time",
		"sum_over_time", "avg_over_time", "max_over_time", "min_over_time"}
	q.op = ops[rng.Intn(len(ops))]
	q.unwrap = strings.HasSuffix(q.op, "_over_time") && q.op != "count_over_time" &&
		q.op != "bytes_over_time" && q.op != "absent_over_time"
	if rng.Intn(3) == 0 {
		q.filter = []string{"boom", "level=error"}[rng.Intn(2)]
	}
	q.logfmt = q.unwrap || rng.Intn(3) == 0
	q.interval = int64([]time.Duration{time.Minute, 2 * time.Minute, 5 * time.Minute, 7 * time.Minute}[rng.Intn(4)])

	sel := make([]string, len(q.sel))
	for i, m := range q.sel {
		sel[i] = m.String()
	}
	src := "{" + strings.Join(sel, ", ") + "}"
	if q.filter != "" {
		src += fmt.Sprintf(" |= %q", q.filter)
	}
	if q.logfmt {
		src += " | logfmt"
	}
	if q.unwrap {
		src += " | unwrap v"
	}
	src = fmt.Sprintf("%s(%s [%dm])", q.op, src, q.interval/int64(time.Minute))

	if rng.Intn(3) != 0 {
		aggs := []string{"sum", "min", "max", "avg", "count", "topk", "bottomk"}
		q.agg = aggs[rng.Intn(len(aggs))]
		var g string
		q.by, q.without, g = grouping(rng, []string{"app", "cluster", "level", "msg"})
		if q.agg == "topk" || q.agg == "bottomk" {
			q.k = 1 + rng.Intn(3)
			src = fmt.Sprintf("%s(%d, %s)%s", q.agg, q.k, src, g)
		} else {
			src = fmt.Sprintf("%s(%s)%s", q.agg, src, g)
		}
	}
	if rng.Intn(3) == 0 {
		q.arith = arithOps[rng.Intn(len(arithOps))]
		q.scalar = float64(1 + rng.Intn(5))
		q.arithLeft = rng.Intn(2) == 0
		if q.arithLeft {
			src = fmt.Sprintf("%s %s %s", fmtValue(q.scalar), q.arith, src)
		} else {
			src = fmt.Sprintf("%s %s %s", src, q.arith, fmtValue(q.scalar))
		}
	}
	if rng.Intn(3) == 0 {
		q.cmp = cmpOps[rng.Intn(len(cmpOps))]
		q.thr = float64(rng.Intn(11))
		q.cmpLeft = rng.Intn(2) == 0
		if q.cmpLeft {
			src = fmt.Sprintf("%s %s %s", fmtValue(q.thr), q.cmp, src)
		} else {
			src = fmt.Sprintf("%s %s %s", src, q.cmp, fmtValue(q.thr))
		}
	}
	q.src = src
	return q
}

// arithmetic applies op between every sample and the scalar s, on its
// left with scalarLeft, passing the labels through relabel.
func arithmetic(in []oracleSample, op string, s float64, scalarLeft bool, relabel func(labels.Labels) labels.Labels) []oracleSample {
	out := make([]oracleSample, len(in))
	for i, smp := range in {
		a, b := smp.v, s
		if scalarLeft {
			a, b = b, a
		}
		var v float64
		switch op {
		case "+":
			v = a + b
		case "-":
			v = a - b
		case "*":
			v = a * b
		case "/":
			v = a / b
		}
		out[i] = oracleSample{relabel(smp.lbls), v}
	}
	return out
}

// logfmtFields splits a generated line into its key=value pairs.
func logfmtFields(line string) map[string]string {
	out := map[string]string{}
	for _, f := range strings.Fields(line) {
		if k, v, ok := strings.Cut(f, "="); ok {
			out[k] = v
		}
	}
	return out
}

// evalLog is the naive LogQL evaluator at ts (ns).
func evalLog(streams []logStream, q logQuery, ts int64) []oracleSample {
	sorted := append([]logStream(nil), streams...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].lbls.String() < sorted[j].lbls.String() })
	type acc struct {
		lbls        labels.Labels
		count, size float64
		vals        []float64
	}
	accs := map[string]*acc{}
	total := 0
	for _, s := range sorted {
		if !matchAll(q.sel, s.lbls) {
			continue
		}
		for _, e := range s.entries {
			if e.ts <= ts-q.interval || e.ts > ts {
				continue
			}
			if q.filter != "" && !strings.Contains(e.line, q.filter) {
				continue
			}
			out := s.lbls.Map()
			if q.logfmt {
				for k, v := range logfmtFields(e.line) {
					if _, clash := out[k]; !clash {
						out[k] = v
					}
				}
			}
			total++
			var val float64
			if q.unwrap {
				var err error
				if val, err = strconv.ParseFloat(out["v"], 64); err != nil {
					continue
				}
				delete(out, "v")
			}
			gl := labels.FromMap(out)
			a := accs[gl.String()]
			if a == nil {
				a = &acc{lbls: gl}
				accs[gl.String()] = a
			}
			a.count++
			a.size += float64(len(e.line))
			if q.unwrap {
				a.vals = append(a.vals, val)
			}
		}
	}
	var vec []oracleSample
	if q.op == "absent_over_time" {
		if total == 0 {
			vec = []oracleSample{{absentLabels(q.sel), 1}}
		}
	} else {
		keys := make([]string, 0, len(accs))
		for k := range accs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		secs := float64(q.interval) / float64(time.Second)
		for _, k := range keys {
			a := accs[k]
			sum := 0.0
			for _, v := range a.vals {
				sum += v
			}
			var v float64
			switch q.op {
			case "count_over_time":
				v = a.count
			case "rate":
				v = a.count / secs
			case "bytes_over_time":
				v = a.size
			case "bytes_rate":
				v = a.size / secs
			default:
				if len(a.vals) == 0 {
					continue
				}
				switch q.op {
				case "sum_over_time":
					v = sum
				case "avg_over_time":
					v = sum / float64(len(a.vals))
				case "max_over_time":
					v = extremum(a.vals, 1)
				case "min_over_time":
					v = extremum(a.vals, -1)
				}
			}
			vec = append(vec, oracleSample{a.lbls, v})
		}
	}
	if q.agg != "" {
		vec = aggregate(vec, q.agg, q.k, q.by, q.without, "")
	}
	if q.arith != "" {
		vec = arithmetic(vec, q.arith, q.scalar, q.arithLeft, func(ls labels.Labels) labels.Labels { return ls })
	}
	if q.cmp != "" {
		vec = compare(vec, q.cmp, q.thr, q.cmpLeft)
	}
	return vec
}

func pushLog(t *testing.T, store *loki.Store, streams []logStream) {
	t.Helper()
	for _, s := range streams {
		entries := make([]loki.Entry, len(s.entries))
		for i, e := range s.entries {
			entries[i] = loki.Entry{Timestamp: e.ts, Line: e.line}
		}
		if err := store.Push([]loki.PushStream{{Labels: s.lbls, Entries: entries}}); err != nil {
			t.Fatal(err)
		}
	}
}

// farFuture keeps every split older than the freshness cutoff.
var farFuture = func() time.Time { return time.Unix(1_000_000, 0) }

// headNow puts the freshness cutoff at corpusEnd: splits ending later are
// the mutable head and must never be cached.
func headNow() time.Time { return time.Unix(0, 0).Add(corpusEnd + time.Minute) }

func checkLogQL(t *testing.T, rng *rand.Rand, withNaN bool) {
	streams := genLogCorpus(rng, withNaN)
	limits := loki.DefaultLimits()
	limits.Shards = 4
	store := loki.NewStore(limits)
	pushLog(t, store, streams)

	mono := logql.NewEngine(store)
	engine := func(cfg frontend.Config) *logql.Engine {
		e := logql.NewEngine(store)
		cfg.SplitInterval = 5 * time.Minute
		e.SetFrontend(frontend.New(cfg))
		return e
	}
	flat := engine(frontend.Config{Now: farFuture, NoShardFanout: true})
	fanned := engine(frontend.Config{Now: farFuture})
	head := engine(frontend.Config{Now: headNow, CacheFreshness: time.Minute})

	queries := make([]logQuery, 6)
	for i := range queries {
		queries[i] = genLogQuery(rng)
	}
	type window struct{ start, end, step int64 }
	heads := make([]window, len(queries))
	for i, q := range queries {
		for n := 0; n < 2; n++ {
			ts := rng.Int63n(int64(headEnd/time.Second)) * 1e9
			got, err := mono.QueryInstant(q.src, ts)
			if err != nil {
				t.Fatalf("logql %s: instant: %v", q.src, err)
			}
			if d := diffVector(got, ts, evalLog(streams, q, ts)); d != "" {
				t.Fatalf("logql %s instant at %d differs:%s", q.src, ts, d)
			}
		}
		start, end, step := rangeWindow(rng, 0, int64(corpusEnd/time.Second))
		start, end, stepD := start*1e9, end*1e9, time.Duration(step)*time.Second
		want := oracleRange(start, end, int64(stepD), func(ts int64) []oracleSample { return evalLog(streams, q, ts) })
		for _, run := range []struct {
			name string
			eng  *logql.Engine
		}{{"monolithic", mono}, {"cold", flat}, {"warm", flat}, {"fan-out", fanned}} {
			got, err := run.eng.QueryRange(q.src, start, end, stepD)
			if err != nil {
				t.Fatalf("logql %s: %s range: %v", q.src, run.name, err)
			}
			if d := diffMatrix(got, want); d != "" {
				t.Fatalf("logql %s: %s range [%d, %d] step %v differs:%s", q.src, run.name, start, end, stepD, d)
			}
		}
		hs, _, hstep := rangeWindow(rng, int64((corpusEnd-20*time.Minute)/time.Second), int64((corpusEnd-5*time.Minute)/time.Second))
		heads[i] = window{hs * 1e9, int64(headEnd), hstep * int64(time.Second)}
		if _, err := head.QueryRange(q.src, heads[i].start, heads[i].end, time.Duration(heads[i].step)); err != nil {
			t.Fatalf("logql %s: head warm-up: %v", q.src, err)
		}
	}

	// The head grows: every stream gets entries after corpusEnd, and the
	// head-window splits must reflect them.
	var grown []logStream
	for i := range streams {
		s := logStream{lbls: streams[i].lbls}
		last := streams[i].entries[len(streams[i].entries)-1].ts / 1e9
		for ts := max(last, int64(corpusEnd/time.Second)) + 1 + rng.Int63n(60); ts <= int64(headEnd/time.Second); ts += 5 + rng.Int63n(60) {
			s.entries = append(s.entries, logLine{ts: ts * 1e9, line: genLogLine(rng, withNaN)})
		}
		grown = append(grown, s)
		streams[i].entries = append(streams[i].entries, s.entries...)
	}
	pushLog(t, store, grown)
	for i, q := range queries {
		w := heads[i]
		want := oracleRange(w.start, w.end, w.step, func(ts int64) []oracleSample { return evalLog(streams, q, ts) })
		got, err := head.QueryRange(q.src, w.start, w.end, time.Duration(w.step))
		if err != nil {
			t.Fatalf("logql %s: head range: %v", q.src, err)
		}
		if d := diffMatrix(got, want); d != "" {
			t.Fatalf("logql %s: mutable-head range [%d, %d] differs:%s", q.src, w.start, w.end, d)
		}
	}
}

// ---- PromQL ----

type promPoint struct {
	t int64 // ms
	v float64
}

type promSeries struct {
	lbls    labels.Labels // with __name__
	samples []promPoint
}

type promQuery struct {
	src        string
	name       string
	sel        []matcher
	fn         string // "" bare selector, "absent", or a range function
	rng        int64  // ms
	agg        string
	k          int
	by         []string
	without    bool
	bin        string
	scalar     float64
	scalarLeft bool
}

func genPromValue(rng *rand.Rand, withNaN bool) float64 {
	if withNaN && rng.Intn(10) == 0 {
		return math.NaN()
	}
	return float64(rng.Intn(21))
}

func genPromCorpus(rng *rand.Rand, withNaN bool) []promSeries {
	var out []promSeries
	add := func(ls labels.Labels) {
		s := promSeries{lbls: ls}
		stop := int64(10*time.Minute/time.Second) + rng.Int63n(int64(20*time.Minute/time.Second))
		for ts := rng.Int63n(30); ts <= stop; ts += 10 + rng.Int63n(50) {
			s.samples = append(s.samples, promPoint{t: ts * 1000, v: genPromValue(rng, withNaN)})
		}
		out = append(out, s)
	}
	for i := 0; i < 8; i++ {
		add(labels.FromStrings("__name__", "m", "job", fmt.Sprintf("j%d", i%2), "node", fmt.Sprintf("n%d", i/2)))
	}
	for i := 0; i < 2; i++ {
		add(labels.FromStrings("__name__", "n", "job", fmt.Sprintf("j%d", i)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].lbls.String() < out[j].lbls.String() })
	return out
}

var promRangeFns = []string{"rate", "increase", "delta", "idelta", "avg_over_time", "sum_over_time",
	"min_over_time", "max_over_time", "count_over_time", "last_over_time"}

func genPromQuery(rng *rand.Rand, withNaN bool) promQuery {
	var q promQuery
	switch rng.Intn(5) {
	case 0:
		q.name = "m"
	case 1:
		q.name, q.sel = "m", []matcher{{"job", "=", fmt.Sprintf("j%d", rng.Intn(3))}}
	case 2:
		q.name, q.sel = "m", []matcher{{"node", "!=", "n1"}}
	case 3:
		q.sel = []matcher{{"job", "=", fmt.Sprintf("j%d", rng.Intn(2))}}
	case 4:
		q.name, q.sel = "n", []matcher{{"job", "=~", "j[01]"}}
	}
	sel := make([]string, len(q.sel))
	for i, m := range q.sel {
		sel[i] = m.String()
	}
	src := q.name
	if len(sel) > 0 {
		src += "{" + strings.Join(sel, ", ") + "}"
	}
	switch r := rng.Intn(10); {
	case r < 2 && q.name != "": // the parser takes a bare {…} only as an argument
	case r < 3:
		q.fn = "absent"
		src = "absent(" + src + ")"
	default:
		q.fn = promRangeFns[rng.Intn(len(promRangeFns))]
		mins := []int64{1, 2, 5}[rng.Intn(3)]
		q.rng = mins * 60_000
		src = fmt.Sprintf("%s(%s[%dm])", q.fn, src, mins)
	}
	if rng.Intn(2) == 0 {
		aggs := []string{"sum", "min", "max", "avg", "count", "topk", "bottomk"}
		q.agg = aggs[rng.Intn(len(aggs))]
		var g string
		q.by, q.without, g = grouping(rng, []string{"job", "node"})
		if q.agg == "topk" || q.agg == "bottomk" {
			q.k = 1 + rng.Intn(3)
			src = fmt.Sprintf("%s(%d, %s)%s", q.agg, q.k, src, g)
		} else {
			src = fmt.Sprintf("%s(%s)%s", q.agg, src, g)
		}
	}
	if rng.Intn(2) == 0 {
		if rng.Intn(2) == 0 {
			q.bin = cmpOps[rng.Intn(len(cmpOps))]
			q.scalar = float64(rng.Intn(21))
		} else {
			q.bin = arithOps[rng.Intn(len(arithOps))]
			q.scalar = float64(1 + rng.Intn(5))
			if withNaN && q.bin == "/" && rng.Intn(2) == 0 {
				q.scalar = 0
			}
		}
		q.scalarLeft = rng.Intn(2) == 0
		if q.scalarLeft {
			src = fmt.Sprintf("%s %s %s", fmtValue(q.scalar), q.bin, src)
		} else {
			src = fmt.Sprintf("%s %s %s", src, q.bin, fmtValue(q.scalar))
		}
	}
	q.src = src
	return q
}

// applyFn is the oracle's range function over in-window samples.
func applyFn(fn string, s []promPoint) (float64, bool) {
	vals := make([]float64, len(s))
	sum := 0.0
	for i, p := range s {
		vals[i] = p.v
		sum += p.v
	}
	n := len(s)
	switch fn {
	case "count_over_time":
		return float64(n), true
	case "last_over_time":
		return s[n-1].v, true
	case "sum_over_time":
		return sum, true
	case "avg_over_time":
		return sum / float64(n), true
	case "min_over_time":
		return extremum(vals, -1), true
	case "max_over_time":
		return extremum(vals, 1), true
	}
	if n < 2 {
		return 0, false
	}
	switch fn {
	case "delta":
		return s[n-1].v - s[0].v, true
	case "idelta":
		return s[n-1].v - s[n-2].v, true
	}
	inc := 0.0
	for i := 1; i < n; i++ {
		if d := s[i].v - s[i-1].v; s[i].v >= s[i-1].v {
			inc += d
		} else {
			inc += s[i].v
		}
	}
	if fn == "increase" {
		return inc, true
	}
	secs := float64(s[n-1].t-s[0].t) / 1000
	if secs <= 0 {
		return 0, false
	}
	return inc / secs, true
}

func withoutName(ls labels.Labels) labels.Labels {
	m := ls.Map()
	delete(m, "__name__")
	return labels.FromMap(m)
}

// evalProm is the naive PromQL evaluator at ts (ms).
func evalProm(series []promSeries, q promQuery, ts int64) []oracleSample {
	ms := q.sel
	if q.name != "" {
		ms = append([]matcher{{"__name__", "=", q.name}}, q.sel...)
	}
	lookback := promql.DefaultLookback.Milliseconds()
	var vec []oracleSample
	for _, s := range series {
		if !matchAll(ms, s.lbls) {
			continue
		}
		switch q.fn {
		case "", "absent":
			var latest *promPoint
			for i := range s.samples {
				if p := s.samples[i]; p.t <= ts && p.t >= ts-lookback {
					latest = &s.samples[i]
				}
			}
			if latest != nil {
				vec = append(vec, oracleSample{s.lbls, latest.v})
			}
		default:
			var in []promPoint
			for _, p := range s.samples {
				if p.t > ts-q.rng && p.t <= ts {
					in = append(in, p)
				}
			}
			if len(in) == 0 {
				continue
			}
			if v, ok := applyFn(q.fn, in); ok {
				vec = append(vec, oracleSample{withoutName(s.lbls), v})
			}
		}
	}
	if q.fn == "absent" {
		if len(vec) > 0 {
			vec = nil
		} else {
			vec = []oracleSample{{absentLabels(q.sel), 1}}
		}
	}
	if q.agg != "" {
		vec = aggregate(vec, q.agg, q.k, q.by, q.without, "__name__")
	}
	switch {
	case q.bin == "":
	case isComparison(q.bin):
		vec = compare(vec, q.bin, q.scalar, q.scalarLeft)
	default:
		vec = arithmetic(vec, q.bin, q.scalar, q.scalarLeft, withoutName)
	}
	return vec
}

func appendProm(t *testing.T, db *tsdb.DB, series []promSeries) {
	t.Helper()
	for _, s := range series {
		for _, p := range s.samples {
			if err := db.Append(s.lbls, p.t, p.v); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func checkPromQL(t *testing.T, rng *rand.Rand, withNaN bool) {
	series := genPromCorpus(rng, withNaN)
	db := tsdb.New()
	appendProm(t, db, series)

	mono := promql.NewEngine(db)
	engine := func(now func() time.Time) *promql.Engine {
		e := promql.NewEngine(db)
		e.SetFrontend(frontend.New(frontend.Config{SplitInterval: 5 * time.Minute, Now: now, CacheFreshness: time.Minute}))
		return e
	}
	cached := engine(farFuture)
	head := engine(headNow)

	queries := make([]promQuery, 6)
	for i := range queries {
		queries[i] = genPromQuery(rng, withNaN)
	}
	type window struct{ start, end, step int64 }
	heads := make([]window, len(queries))
	for i, q := range queries {
		for n := 0; n < 2; n++ {
			ts := rng.Int63n(headEnd.Milliseconds())
			got, err := mono.Query(q.src, ts)
			if err != nil {
				t.Fatalf("promql %s: instant: %v", q.src, err)
			}
			if d := diffVector(got, ts, evalProm(series, q, ts)); d != "" {
				t.Fatalf("promql %s instant at %d differs:%s", q.src, ts, d)
			}
		}
		start, end, step := rangeWindow(rng, 0, int64(corpusEnd/time.Second))
		start, end, stepD := start*1000, end*1000, time.Duration(step)*time.Second
		want := oracleRange(start, end, stepD.Milliseconds(), func(ts int64) []oracleSample { return evalProm(series, q, ts) })
		for _, run := range []struct {
			name string
			eng  *promql.Engine
		}{{"monolithic", mono}, {"cold", cached}, {"warm", cached}} {
			got, err := run.eng.QueryRange(q.src, start, end, stepD)
			if err != nil {
				t.Fatalf("promql %s: %s range: %v", q.src, run.name, err)
			}
			if d := diffMatrix(got, want); d != "" {
				t.Fatalf("promql %s: %s range [%d, %d] step %v differs:%s", q.src, run.name, start, end, stepD, d)
			}
		}
		hs, _, hstep := rangeWindow(rng, int64((corpusEnd-20*time.Minute)/time.Second), int64((corpusEnd-5*time.Minute)/time.Second))
		heads[i] = window{hs * 1000, headEnd.Milliseconds(), hstep * 1000}
		if _, err := head.QueryRange(q.src, heads[i].start, heads[i].end, time.Duration(heads[i].step)*time.Millisecond); err != nil {
			t.Fatalf("promql %s: head warm-up: %v", q.src, err)
		}
	}

	var grown []promSeries
	for i := range series {
		s := promSeries{lbls: series[i].lbls}
		last := series[i].samples[len(series[i].samples)-1].t / 1000
		for ts := max(last, int64(corpusEnd/time.Second)) + 1 + rng.Int63n(30); ts <= int64(headEnd/time.Second); ts += 10 + rng.Int63n(50) {
			s.samples = append(s.samples, promPoint{t: ts * 1000, v: genPromValue(rng, withNaN)})
		}
		grown = append(grown, s)
		series[i].samples = append(series[i].samples, s.samples...)
	}
	appendProm(t, db, grown)
	for i, q := range queries {
		w := heads[i]
		want := oracleRange(w.start, w.end, w.step, func(ts int64) []oracleSample { return evalProm(series, q, ts) })
		got, err := head.QueryRange(q.src, w.start, w.end, time.Duration(w.step)*time.Millisecond)
		if err != nil {
			t.Fatalf("promql %s: head range: %v", q.src, err)
		}
		if d := diffMatrix(got, want); d != "" {
			t.Fatalf("promql %s: mutable-head range [%d, %d] differs:%s", q.src, w.start, w.end, d)
		}
	}
}
