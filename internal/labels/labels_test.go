package labels

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewSortsAndDedups(t *testing.T) {
	ls := New(Label{"b", "2"}, Label{"a", "1"}, Label{"b", "3"})
	want := Labels{{"a", "1"}, {"b", "3"}}
	if !ls.Equal(want) {
		t.Fatalf("got %v want %v", ls, want)
	}
}

func TestFromStrings(t *testing.T) {
	ls := FromStrings("cluster", "perlmutter", "app", "fm")
	if ls[0].Name != "app" || ls[1].Name != "cluster" {
		t.Fatalf("not sorted: %v", ls)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on odd args")
		}
	}()
	FromStrings("only-one")
}

func TestGetHasMap(t *testing.T) {
	ls := FromStrings("a", "1", "b", "2")
	if ls.Get("a") != "1" || ls.Get("missing") != "" {
		t.Fatal("Get wrong")
	}
	if !ls.Has("b") || ls.Has("c") {
		t.Fatal("Has wrong")
	}
	m := ls.Map()
	if len(m) != 2 || m["b"] != "2" {
		t.Fatalf("Map wrong: %v", m)
	}
}

func TestWithInsertReplaceAppend(t *testing.T) {
	ls := FromStrings("b", "2", "d", "4")
	cases := []struct {
		name, value string
		want        Labels
	}{
		{"a", "1", FromStrings("a", "1", "b", "2", "d", "4")},
		{"b", "9", FromStrings("b", "9", "d", "4")},
		{"c", "3", FromStrings("b", "2", "c", "3", "d", "4")},
		{"e", "5", FromStrings("b", "2", "d", "4", "e", "5")},
	}
	for _, c := range cases {
		got := ls.With(c.name, c.value)
		if !got.Equal(c.want) {
			t.Errorf("With(%s,%s) = %v, want %v", c.name, c.value, got, c.want)
		}
	}
	// Original untouched.
	if !ls.Equal(FromStrings("b", "2", "d", "4")) {
		t.Fatal("With mutated receiver")
	}
}

func TestWithoutKeep(t *testing.T) {
	ls := FromStrings("a", "1", "b", "2", "c", "3")
	if got := ls.Without("b"); !got.Equal(FromStrings("a", "1", "c", "3")) {
		t.Fatalf("Without: %v", got)
	}
	if got := ls.Keep("b", "zz"); !got.Equal(FromStrings("b", "2")) {
		t.Fatalf("Keep: %v", got)
	}
}

func TestFingerprintDistinguishesBoundaries(t *testing.T) {
	// "ab"+"c" must differ from "a"+"bc".
	a := New(Label{"ab", "c"})
	b := New(Label{"a", "bc"})
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("fingerprint collision on boundary shift")
	}
	if a.Fingerprint() != a.Copy().Fingerprint() {
		t.Fatal("fingerprint not deterministic")
	}
}

func TestFingerprintSeeded(t *testing.T) {
	ls := FromStrings("app", "fm", "cluster", "perlmutter")
	// Seeding with the FNV offset basis is the identity: the tenant layer
	// relies on this to keep default-tenant fingerprints byte-identical.
	if ls.FingerprintSeeded(14695981039346656037) != ls.Fingerprint() {
		t.Fatal("offset-basis seed diverges from plain Fingerprint")
	}
	s1, s2 := Seed("hpc-a"), Seed("hpc-b")
	if s1 == s2 {
		t.Fatal("distinct strings share a seed")
	}
	if ls.FingerprintSeeded(s1) == ls.FingerprintSeeded(s2) {
		t.Fatal("distinct seeds share a fingerprint")
	}
	if ls.FingerprintSeeded(s1) != ls.Copy().FingerprintSeeded(s1) {
		t.Fatal("seeded fingerprint not deterministic")
	}
}

func TestString(t *testing.T) {
	ls := FromStrings("app", "fm", "cluster", "perlmutter")
	got := ls.String()
	want := `{app="fm", cluster="perlmutter"}`
	if got != want {
		t.Fatalf("got %s want %s", got, want)
	}
}

func TestValidate(t *testing.T) {
	if err := FromStrings("ok", "v").Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Labels{{Name: "", Value: "v"}}
	if bad.Validate() == nil {
		t.Fatal("empty name accepted")
	}
	bad = Labels{{Name: `a=b`, Value: "v"}}
	if bad.Validate() == nil {
		t.Fatal("name with = accepted")
	}
}

// A set that names one label twice is not a label set: {a="2"} would
// never select the series {a="1", a="2"} it renders as.
func TestValidateRejectsRepeatedName(t *testing.T) {
	bad := Labels{{Name: "__name__", Value: "m"}, {Name: "a", Value: "1"}, {Name: "a", Value: "2"}}
	if err := bad.Validate(); err == nil {
		t.Fatal("repeated label name accepted")
	}
}

func TestMatcherTypes(t *testing.T) {
	cases := []struct {
		t    MatchType
		val  string
		in   string
		want bool
	}{
		{MatchEqual, "x", "x", true},
		{MatchEqual, "x", "y", false},
		{MatchNotEqual, "x", "y", true},
		{MatchNotEqual, "x", "x", false},
		{MatchRegexp, "x.*", "xyz", true},
		{MatchRegexp, "x.*", "axyz", false}, // anchored
		{MatchNotRegexp, "x.*", "abc", true},
		{MatchNotRegexp, "x.*", "x", false},
	}
	for _, c := range cases {
		m, err := NewMatcher(c.t, "l", c.val)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Matches(c.in); got != c.want {
			t.Errorf("%s %q on %q: got %v", c.t, c.val, c.in, got)
		}
	}
}

func TestMatcherBadRegexp(t *testing.T) {
	if _, err := NewMatcher(MatchRegexp, "l", "("); err == nil {
		t.Fatal("bad regexp accepted")
	}
}

func TestMatchLabelsAbsentLabel(t *testing.T) {
	ls := FromStrings("a", "1")
	// != on absent label matches (empty string != "x").
	m := MustMatcher(MatchNotEqual, "b", "x")
	if !MatchLabels(ls, []*Matcher{m}) {
		t.Fatal("!= on absent label should match")
	}
	// = on absent label fails unless value is "".
	m2 := MustMatcher(MatchEqual, "b", "")
	if !MatchLabels(ls, []*Matcher{m2}) {
		t.Fatal(`= "" on absent label should match`)
	}
}

func TestSelectorString(t *testing.T) {
	s := Selector{MustMatcher(MatchEqual, "app", "fm"), MustMatcher(MatchRegexp, "x", "y.*")}
	want := `{app="fm", x=~"y.*"}`
	if s.String() != want {
		t.Fatalf("got %s", s.String())
	}
	if !s.Matches(FromStrings("app", "fm", "x", "yz")) {
		t.Fatal("selector should match")
	}
}

func TestBuilder(t *testing.T) {
	base := FromStrings("a", "1", "b", "2")
	got := NewBuilder(base).Set("c", "3").Del("a").Set("b", "9").Labels()
	if !got.Equal(FromStrings("b", "9", "c", "3")) {
		t.Fatalf("builder: %v", got)
	}
	// Set after Del restores.
	got = NewBuilder(base).Del("a").Set("a", "x").Labels()
	if got.Get("a") != "x" {
		t.Fatalf("set-after-del: %v", got)
	}
}

// Property: New output is always sorted and unique.
func TestPropertyNewSorted(t *testing.T) {
	f := func(names, values []string) bool {
		n := len(names)
		if len(values) < n {
			n = len(values)
		}
		pairs := make([]Label, 0, n)
		for i := 0; i < n; i++ {
			pairs = append(pairs, Label{names[i], values[i]})
		}
		ls := New(pairs...)
		if !sort.SliceIsSorted(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name }) {
			return false
		}
		for i := 1; i < len(ls); i++ {
			if ls[i].Name == ls[i-1].Name {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: fingerprints of permuted constructions agree.
func TestPropertyFingerprintOrderIndependent(t *testing.T) {
	f := func(a, b, c string) bool {
		l1 := New(Label{"x", a}, Label{"y", b}, Label{"z", c})
		l2 := New(Label{"z", c}, Label{"x", a}, Label{"y", b})
		return l1.Fingerprint() == l2.Fingerprint()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: With then Get round-trips, and keeps sorting.
func TestPropertyWithGet(t *testing.T) {
	f := func(k, v string) bool {
		if k == "" || strings.ContainsAny(k, `={}" ,`) {
			return true // skip invalid names
		}
		base := FromStrings("m", "1", "zz", "2")
		got := base.With(k, v)
		return got.Get(k) == v && sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Name < got[j].Name })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFingerprint(b *testing.B) {
	ls := FromStrings("cluster", "perlmutter", "data_type", "redfish_event", "Context", "x1203c1b0")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ls.Fingerprint()
	}
}

func BenchmarkMatchLabels(b *testing.B) {
	ls := FromStrings("cluster", "perlmutter", "data_type", "redfish_event", "Context", "x1203c1b0")
	sel := Selector{
		MustMatcher(MatchEqual, "cluster", "perlmutter"),
		MustMatcher(MatchRegexp, "Context", "x1.*"),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !sel.Matches(ls) {
			b.Fatal("no match")
		}
	}
}
