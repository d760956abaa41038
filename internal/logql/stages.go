package logql

import (
	"encoding/json"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"unicode"

	"shastamon/internal/frontend"
	"shastamon/internal/labels"
)

// Stage is one step of a log pipeline. Process receives the current line
// and label set and returns the (possibly rewritten) line, the (possibly
// extended) labels, and whether the entry survives the stage.
type Stage interface {
	Process(line string, lbls labels.Labels) (string, labels.Labels, bool)
	String() string
}

// ---- line filters: |= != |~ !~ ----

type lineFilterStage struct {
	op    string // |= != |~ !~
	match string
	re    *regexp.Regexp // set for |~ and !~
	keep  bool           // a line that matches survives: |= and |~
}

func newLineFilter(op string, match string) (Stage, error) {
	s := &lineFilterStage{op: op, match: match, keep: op[0] == '|'}
	if op[1] == '~' {
		re, err := regexp.Compile(match)
		if err != nil {
			return nil, fmt.Errorf("logql: line filter regexp: %w", err)
		}
		s.re = re
	}
	return s, nil
}

func (s *lineFilterStage) Process(line string, lbls labels.Labels) (string, labels.Labels, bool) {
	if s.re != nil {
		return line, lbls, s.re.MatchString(line) == s.keep
	}
	return line, lbls, strings.Contains(line, s.match) == s.keep
}

func (s *lineFilterStage) String() string {
	return s.op + " " + frontend.Quote(s.match)
}

// ---- json parser: | json ----

// jsonStage extracts top-level (and nested, underscore-flattened) JSON
// fields into labels. CamelCase keys are normalised to snake_case so the
// paper's queries (severity, message_id) address fields of Redfish events
// (Severity, MessageId) verbatim. Existing labels are never overwritten.
type jsonStage struct{}

func (jsonStage) String() string { return "| json" }

func (jsonStage) Process(line string, lbls labels.Labels) (string, labels.Labels, bool) {
	var v map[string]interface{}
	if err := json.Unmarshal([]byte(line), &v); err != nil {
		// Loki marks unparsable lines with __error__ and lets them through.
		return line, lbls.With("__error__", "JSONParserErr"), true
	}
	b := labels.NewBuilder(lbls)
	flattenJSON("", v, lbls, b)
	return line, b.Labels(), true
}

func flattenJSON(prefix string, v map[string]interface{}, base labels.Labels, b *labels.Builder) {
	for k, val := range v {
		name := toSnake(k)
		if prefix != "" {
			name = prefix + "_" + name
		}
		switch t := val.(type) {
		case map[string]interface{}:
			flattenJSON(name, t, base, b)
		case string:
			if !base.Has(name) {
				b.Set(name, t)
			}
		case float64:
			if !base.Has(name) {
				b.Set(name, strconv.FormatFloat(t, 'g', -1, 64))
			}
		case bool:
			if !base.Has(name) {
				b.Set(name, strconv.FormatBool(t))
			}
		case nil:
			// skip nulls
		default:
			// arrays: stored as compact JSON
			if !base.Has(name) {
				enc, err := json.Marshal(t)
				if err == nil {
					b.Set(name, string(enc))
				}
			}
		}
	}
}

// toSnake converts CamelCase to snake_case and sanitises characters that
// are invalid in label names.
func toSnake(s string) string {
	var b strings.Builder
	var prevLower bool
	for _, r := range s {
		switch {
		case r >= 'A' && r <= 'Z':
			if prevLower {
				b.WriteByte('_')
			}
			b.WriteRune(r - 'A' + 'a')
			prevLower = false
		case r == '.' || r == '-' || r == ' ' || r == '@':
			b.WriteByte('_')
			prevLower = false
		default:
			b.WriteRune(r)
			prevLower = r >= 'a' && r <= 'z' || r >= '0' && r <= '9'
		}
	}
	return b.String()
}

// ---- logfmt parser: | logfmt ----

type logfmtStage struct{}

func (logfmtStage) String() string { return "| logfmt" }

func (logfmtStage) Process(line string, lbls labels.Labels) (string, labels.Labels, bool) {
	b := labels.NewBuilder(lbls)
	for _, kv := range parseLogfmt(line) {
		name := toSnake(kv[0])
		if name == "" || lbls.Has(name) {
			continue
		}
		b.Set(name, kv[1])
	}
	return line, b.Labels(), true
}

// parseLogfmt extracts key=value pairs; values may be double-quoted.
func parseLogfmt(line string) [][2]string {
	var out [][2]string
	i := 0
	n := len(line)
	for i < n {
		for i < n && line[i] == ' ' {
			i++
		}
		start := i
		for i < n && line[i] != '=' && line[i] != ' ' {
			i++
		}
		if i >= n || line[i] != '=' {
			continue // bare word, skip
		}
		key := line[start:i]
		i++ // '='
		var val string
		if i < n && line[i] == '"' {
			i++
			vs := i
			for i < n && line[i] != '"' {
				if line[i] == '\\' && i+1 < n {
					i++
				}
				i++
			}
			val = strings.ReplaceAll(line[vs:i], `\"`, `"`)
			if i < n {
				i++ // closing quote
			}
		} else {
			vs := i
			for i < n && line[i] != ' ' {
				i++
			}
			val = line[vs:i]
		}
		if key != "" {
			out = append(out, [2]string{key, val})
		}
	}
	return out
}

// ---- pattern parser: | pattern "<a> ... <b>" ----

// patternStage implements Loki's pattern parser, used by the paper's
// switch-offline rule:
//
//	| pattern "[<severity>] problem:<problem>, xname:<xname>, state:<state>"
type patternStage struct {
	template string
	parts    []patPart
}

type patPart struct {
	lit     string // literal to match (may be empty for leading capture)
	capture string // capture name following the literal ("" at the tail, "_" to discard)
}

func newPatternStage(template string) (Stage, error) {
	parts, err := parsePatternTemplate(template)
	if err != nil {
		return nil, err
	}
	return &patternStage{template: template, parts: parts}, nil
}

// isIdentPart reports whether c may appear in a pattern capture name.
func isIdentPart(c byte) bool { return c == '_' || unicode.IsLetter(rune(c)) || c >= '0' && c <= '9' }

func parsePatternTemplate(t string) ([]patPart, error) {
	var parts []patPart
	i := 0
	lit := strings.Builder{}
	hasCapture := false
	for i < len(t) {
		if t[i] == '<' {
			j := strings.IndexByte(t[i:], '>')
			if j < 0 {
				return nil, fmt.Errorf("logql: pattern: unclosed capture in %q", t)
			}
			name := t[i+1 : i+j]
			if name == "" {
				return nil, fmt.Errorf("logql: pattern: empty capture in %q", t)
			}
			for _, r := range name {
				if !isIdentPart(byte(r)) {
					return nil, fmt.Errorf("logql: pattern: bad capture name %q", name)
				}
			}
			parts = append(parts, patPart{lit: lit.String(), capture: name})
			lit.Reset()
			hasCapture = true
			i += j + 1
			continue
		}
		lit.WriteByte(t[i])
		i++
	}
	if lit.Len() > 0 {
		parts = append(parts, patPart{lit: lit.String()})
	}
	if !hasCapture {
		return nil, fmt.Errorf("logql: pattern: no captures in %q", t)
	}
	return parts, nil
}

func (s *patternStage) Process(line string, lbls labels.Labels) (string, labels.Labels, bool) {
	caps, ok := matchPattern(s.parts, line)
	if !ok {
		return line, lbls.With("__error__", "PatternParserErr"), true
	}
	b := labels.NewBuilder(lbls)
	for name, val := range caps {
		if name == "_" || lbls.Has(name) {
			continue
		}
		b.Set(name, val)
	}
	return line, b.Labels(), true
}

func matchPattern(parts []patPart, line string) (map[string]string, bool) {
	caps := map[string]string{}
	pos := 0
	for idx, p := range parts {
		if p.lit != "" {
			at := strings.Index(line[pos:], p.lit)
			if at < 0 {
				return nil, false
			}
			if idx == 0 && at != 0 {
				// A leading literal must anchor at the start.
				return nil, false
			}
			if idx > 0 && parts[idx-1].capture != "" {
				caps[parts[idx-1].capture] = line[pos : pos+at]
			}
			pos += at + len(p.lit)
		}
		if p.capture != "" && idx == len(parts)-1 {
			// trailing capture takes the rest of the line
			caps[p.capture] = line[pos:]
			pos = len(line)
		}
	}
	return caps, true
}

func (s *patternStage) String() string { return "| pattern " + frontend.Quote(s.template) }

// ---- regexp parser: | regexp "(?P<name>...)" ----

type regexpStage struct {
	expr string
	re   *regexp.Regexp
}

func newRegexpStage(expr string) (Stage, error) {
	re, err := regexp.Compile(expr)
	if err != nil {
		return nil, fmt.Errorf("logql: regexp parser: %w", err)
	}
	names := 0
	for _, n := range re.SubexpNames() {
		if n != "" {
			names++
		}
	}
	if names == 0 {
		return nil, fmt.Errorf("logql: regexp parser needs named captures: %q", expr)
	}
	return &regexpStage{expr: expr, re: re}, nil
}

func (s *regexpStage) Process(line string, lbls labels.Labels) (string, labels.Labels, bool) {
	m := s.re.FindStringSubmatch(line)
	if m == nil {
		return line, lbls.With("__error__", "RegexpParserErr"), true
	}
	b := labels.NewBuilder(lbls)
	for i, name := range s.re.SubexpNames() {
		if name == "" || i >= len(m) || lbls.Has(name) {
			continue
		}
		b.Set(name, m[i])
	}
	return line, b.Labels(), true
}

func (s *regexpStage) String() string { return "| regexp " + frontend.Quote(s.expr) }

// ---- label filter: | severity="Warning", | value > 5 ----

type labelFilterStage struct {
	// exactly one of matcher / numeric is set
	matcher *labels.Matcher
	name    string
	op      string // > >= < <= == !=
	num     float64
}

func (s *labelFilterStage) Process(line string, lbls labels.Labels) (string, labels.Labels, bool) {
	if s.matcher != nil {
		return line, lbls, s.matcher.Matches(lbls.Get(s.matcher.Name))
	}
	v, err := strconv.ParseFloat(lbls.Get(s.name), 64)
	if err != nil {
		return line, lbls, false
	}
	holds, _ := frontend.Compare(s.op, v, s.num)
	return line, lbls, holds
}

func (s *labelFilterStage) String() string {
	if s.matcher != nil {
		return "| " + frontend.FormatMatcher(s.matcher)
	}
	return fmt.Sprintf("| %s %s %s", s.name, s.op, frontend.FormatNumber(s.num))
}

// ---- line_format: | line_format "{{.severity}}: {{.message}}" ----

// lineFormatStage rewrites the line from a template referencing labels via
// {{.name}} placeholders (the subset of Go template syntax Loki queries in
// the paper's context need).
type lineFormatStage struct {
	template string
}

var tmplRef = regexp.MustCompile(`\{\{\s*\.([a-zA-Z_][a-zA-Z0-9_]*)\s*\}\}`)

func (s *lineFormatStage) Process(line string, lbls labels.Labels) (string, labels.Labels, bool) {
	out := tmplRef.ReplaceAllStringFunc(s.template, func(m string) string {
		name := tmplRef.FindStringSubmatch(m)[1]
		return lbls.Get(name)
	})
	return out, lbls, true
}

func (s *lineFormatStage) String() string { return "| line_format " + frontend.Quote(s.template) }

// ---- label_format: | label_format dst=src or dst="{{.a}}-{{.b}}" ----

type labelFormatStage struct {
	dst      string
	src      string // rename source; mutually exclusive with template
	template string
}

func (s *labelFormatStage) Process(line string, lbls labels.Labels) (string, labels.Labels, bool) {
	b := labels.NewBuilder(lbls)
	if s.template != "" {
		val := tmplRef.ReplaceAllStringFunc(s.template, func(m string) string {
			name := tmplRef.FindStringSubmatch(m)[1]
			return lbls.Get(name)
		})
		b.Set(s.dst, val)
	} else {
		b.Set(s.dst, lbls.Get(s.src))
		b.Del(s.src)
	}
	return line, b.Labels(), true
}

func (s *labelFormatStage) String() string {
	if s.template != "" {
		return fmt.Sprintf("| label_format %s=%s", s.dst, frontend.Quote(s.template))
	}
	return fmt.Sprintf("| label_format %s=%s", s.dst, s.src)
}

// runPipeline applies all stages to an entry.
func runPipeline(stages []Stage, line string, lbls labels.Labels) (string, labels.Labels, bool) {
	ok := true
	for _, st := range stages {
		line, lbls, ok = st.Process(line, lbls)
		if !ok {
			return line, lbls, false
		}
	}
	return line, lbls, true
}
