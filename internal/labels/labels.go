// Package labels implements label sets and matchers in the style shared by
// Prometheus, VictoriaMetrics and Grafana Loki. A label set identifies a
// metric series or a log stream; matchers select sets of them.
//
// Label sets are kept sorted by name so that equality, hashing and string
// rendering are deterministic and allocation-light.
package labels

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Label is a single name/value pair.
type Label struct {
	Name  string
	Value string
}

// Labels is a set of labels sorted by name. The zero value is an empty set.
type Labels []Label

// New builds a sorted Labels from the given pairs. Duplicate names keep the
// last value, mirroring relabeling semantics.
func New(pairs ...Label) Labels {
	ls := make(Labels, 0, len(pairs))
	ls = append(ls, pairs...)
	sort.SliceStable(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	// Deduplicate, last wins.
	out := ls[:0]
	for i := 0; i < len(ls); i++ {
		if len(out) > 0 && out[len(out)-1].Name == ls[i].Name {
			out[len(out)-1].Value = ls[i].Value
			continue
		}
		out = append(out, ls[i])
	}
	return out
}

// FromMap builds a sorted Labels from a map.
func FromMap(m map[string]string) Labels {
	ls := make(Labels, 0, len(m))
	for k, v := range m {
		ls = append(ls, Label{Name: k, Value: v})
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	return ls
}

// FromStrings builds Labels from name, value, name, value, ... It panics on
// an odd number of arguments; it is intended for literals in tests and
// configuration code.
func FromStrings(nv ...string) Labels {
	if len(nv)%2 != 0 {
		panic("labels.FromStrings: odd number of arguments")
	}
	ls := make(Labels, 0, len(nv)/2)
	for i := 0; i < len(nv); i += 2 {
		ls = append(ls, Label{Name: nv[i], Value: nv[i+1]})
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	return ls
}

// Get returns the value of the label with the given name, or "".
func (ls Labels) Get(name string) string {
	for _, l := range ls {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// Has reports whether the set contains the given name.
func (ls Labels) Has(name string) bool {
	for _, l := range ls {
		if l.Name == name {
			return true
		}
	}
	return false
}

// Map returns the labels as a map.
func (ls Labels) Map() map[string]string {
	m := make(map[string]string, len(ls))
	for _, l := range ls {
		m[l.Name] = l.Value
	}
	return m
}

// Copy returns an independent copy of the label set.
func (ls Labels) Copy() Labels {
	out := make(Labels, len(ls))
	copy(out, ls)
	return out
}

// With returns a copy with the given label set (added or replaced).
func (ls Labels) With(name, value string) Labels {
	out := make(Labels, 0, len(ls)+1)
	inserted := false
	for _, l := range ls {
		switch {
		case l.Name == name:
			out = append(out, Label{name, value})
			inserted = true
		case !inserted && l.Name > name:
			out = append(out, Label{name, value}, l)
			inserted = true
		default:
			out = append(out, l)
		}
	}
	if !inserted {
		out = append(out, Label{name, value})
	}
	return out
}

// Without returns a copy with the named labels removed.
func (ls Labels) Without(names ...string) Labels {
	drop := make(map[string]bool, len(names))
	for _, n := range names {
		drop[n] = true
	}
	out := make(Labels, 0, len(ls))
	for _, l := range ls {
		if !drop[l.Name] {
			out = append(out, l)
		}
	}
	return out
}

// Keep returns a copy retaining only the named labels.
func (ls Labels) Keep(names ...string) Labels {
	keep := make(map[string]bool, len(names))
	for _, n := range names {
		keep[n] = true
	}
	out := make(Labels, 0, len(names))
	for _, l := range ls {
		if keep[l.Name] {
			out = append(out, l)
		}
	}
	return out
}

// Equal reports whether two label sets are identical.
func (ls Labels) Equal(other Labels) bool {
	if len(ls) != len(other) {
		return false
	}
	for i := range ls {
		if ls[i] != other[i] {
			return false
		}
	}
	return true
}

// Fingerprint is a hash identifying a label set. Distinct label sets map to
// distinct fingerprints with high probability; collisions are tolerated by
// callers that compare full label sets on lookup.
type Fingerprint uint64

// FNV-1a parameters, inlined so fingerprinting allocates nothing: the
// sharded stores hash every pushed stream to pick its shard, so this sits
// on the ingest hot path.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Fingerprint computes an FNV-1a hash over the sorted name/value pairs.
// It is byte-for-byte compatible with hash/fnv over the same
// name/0xff/value/0xff sequence but performs no allocations.
func (ls Labels) Fingerprint() Fingerprint {
	h := uint64(fnvOffset64)
	for _, l := range ls {
		for i := 0; i < len(l.Name); i++ {
			h = (h ^ uint64(l.Name[i])) * fnvPrime64
		}
		h = (h ^ 0xff) * fnvPrime64
		for i := 0; i < len(l.Value); i++ {
			h = (h ^ uint64(l.Value[i])) * fnvPrime64
		}
		h = (h ^ 0xff) * fnvPrime64
	}
	return Fingerprint(h)
}

// Seed folds a namespace string (e.g. a tenant ID) into an FNV-1a state
// usable as the starting offset of FingerprintSeeded. Seeding keeps
// namespaced fingerprinting as allocation-free as the plain form: the
// seed is computed once per namespace and reused for every label set.
func Seed(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return (h ^ 0xff) * fnvPrime64
}

// FingerprintSeeded is Fingerprint starting from an arbitrary FNV state
// instead of the standard offset basis. FingerprintSeeded(seed) with
// seed = the FNV offset basis is identical to Fingerprint(), so a
// default namespace can keep byte-identical hashes.
func (ls Labels) FingerprintSeeded(seed uint64) Fingerprint {
	h := seed
	for _, l := range ls {
		for i := 0; i < len(l.Name); i++ {
			h = (h ^ uint64(l.Name[i])) * fnvPrime64
		}
		h = (h ^ 0xff) * fnvPrime64
		for i := 0; i < len(l.Value); i++ {
			h = (h ^ uint64(l.Value[i])) * fnvPrime64
		}
		h = (h ^ 0xff) * fnvPrime64
	}
	return Fingerprint(h)
}

// String renders the set in the {name="value", ...} form used by both
// PromQL and LogQL.
func (ls Labels) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// Validate reports an error if any label name is empty, contains '=',
// '{', '}' or '"' characters that would make the rendered form ambiguous,
// or repeats (a matcher on the name would see only one of the values).
func (ls Labels) Validate() error {
	for i, l := range ls {
		if l.Name == "" {
			return fmt.Errorf("labels: empty label name (value %q)", l.Value)
		}
		if strings.ContainsAny(l.Name, `={}" ,`) {
			return fmt.Errorf("labels: invalid label name %q", l.Name)
		}
		if i > 0 && ls[i-1].Name == l.Name {
			return fmt.Errorf("labels: repeated label name %q", l.Name)
		}
	}
	return nil
}

// MatchType is the comparison operator of a Matcher.
type MatchType int

// Match types correspond to the four selector operators of PromQL/LogQL.
const (
	MatchEqual     MatchType = iota // =
	MatchNotEqual                   // !=
	MatchRegexp                     // =~
	MatchNotRegexp                  // !~
)

// String returns the operator token.
func (t MatchType) String() string {
	switch t {
	case MatchEqual:
		return "="
	case MatchNotEqual:
		return "!="
	case MatchRegexp:
		return "=~"
	case MatchNotRegexp:
		return "!~"
	}
	return "?"
}

// Matcher tests a single label against a value or anchored regexp.
type Matcher struct {
	Type  MatchType
	Name  string
	Value string

	re *regexp.Regexp
}

// NewMatcher builds a matcher; regexp values are compiled fully anchored,
// as in Prometheus.
func NewMatcher(t MatchType, name, value string) (*Matcher, error) {
	m := &Matcher{Type: t, Name: name, Value: value}
	if t == MatchRegexp || t == MatchNotRegexp {
		re, err := regexp.Compile("^(?:" + value + ")$")
		if err != nil {
			return nil, fmt.Errorf("labels: bad regexp %q: %w", value, err)
		}
		m.re = re
	}
	return m, nil
}

// MustMatcher is NewMatcher that panics on error; for tests and literals.
func MustMatcher(t MatchType, name, value string) *Matcher {
	m, err := NewMatcher(t, name, value)
	if err != nil {
		panic(err)
	}
	return m
}

// Matches reports whether the given value satisfies the matcher.
func (m *Matcher) Matches(v string) bool {
	switch m.Type {
	case MatchEqual:
		return v == m.Value
	case MatchNotEqual:
		return v != m.Value
	case MatchRegexp:
		return m.re.MatchString(v)
	case MatchNotRegexp:
		return !m.re.MatchString(v)
	}
	return false
}

// String renders the matcher as name<op>"value".
func (m *Matcher) String() string {
	return m.Name + m.Type.String() + strconv.Quote(m.Value)
}

// MatchLabels reports whether a label set satisfies all matchers. A matcher
// on an absent label sees the empty string, matching Prometheus semantics
// (so name!="x" matches series without the label).
func MatchLabels(ls Labels, matchers []*Matcher) bool {
	for _, m := range matchers {
		if !m.Matches(ls.Get(m.Name)) {
			return false
		}
	}
	return true
}

// Selector is a parsed set of matchers with a compact String form.
type Selector []*Matcher

// String renders the selector in {a="b", c!~"d"} form.
func (s Selector) String() string {
	parts := make([]string, len(s))
	for i, m := range s {
		parts[i] = m.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Matches applies MatchLabels.
func (s Selector) Matches(ls Labels) bool { return MatchLabels(ls, s) }

// Builder incrementally assembles a label set.
type Builder struct {
	add  map[string]string
	del  map[string]bool
	base Labels
}

// NewBuilder starts from a base label set.
func NewBuilder(base Labels) *Builder {
	return &Builder{add: map[string]string{}, del: map[string]bool{}, base: base}
}

// Set schedules name=value.
func (b *Builder) Set(name, value string) *Builder {
	b.add[name] = value
	delete(b.del, name)
	return b
}

// Del schedules removal of name.
func (b *Builder) Del(name string) *Builder {
	b.del[name] = true
	delete(b.add, name)
	return b
}

// Labels materialises the result.
func (b *Builder) Labels() Labels {
	m := make(map[string]string, len(b.base)+len(b.add))
	for _, l := range b.base {
		m[l.Name] = l.Value
	}
	for k, v := range b.add {
		m[k] = v
	}
	for k := range b.del {
		delete(m, k)
	}
	return FromMap(m)
}
