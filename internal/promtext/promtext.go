// Package promtext encodes and parses the Prometheus text exposition
// format (version 0.0.4), the wire format between the exporters HPE and
// NERSC install and the vmagent scraper.
package promtext

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"shastamon/internal/labels"
)

// Metric is one exposition line: a metric name, labels, and a value.
// Timestamp is optional (0 means "now at scrape time"). An optional
// OpenMetrics-style exemplar may ride on the line (histogram buckets use
// this to link a bucket to a concrete trace ID).
type Metric struct {
	Name      string
	Labels    labels.Labels
	Value     float64
	Timestamp int64 // milliseconds since epoch, 0 if absent
	Exemplar  *Exemplar
}

// Exemplar is an OpenMetrics exemplar: a labelled example observation
// attached to a sample, rendered as
//
//	name{le="2.5"} 4 # {trace_id="00ab-000001"} 1.7 1646272077000
//
// Timestamp is in milliseconds since epoch, 0 if absent.
type Exemplar struct {
	Labels    labels.Labels
	Value     float64
	Timestamp int64
}

// Family groups metrics of one name with HELP/TYPE metadata.
type Family struct {
	Name    string
	Help    string
	Type    string // counter, gauge, histogram, summary, untyped
	Metrics []Metric
}

// Write renders families in exposition order. Families and their metrics
// are written in the given order; callers sort if determinism matters.
func Write(w io.Writer, families []Family) error {
	bw := bufio.NewWriter(w)
	for _, f := range families {
		if f.Help != "" {
			if _, err := fmt.Fprintf(bw, "# HELP %s %s\n", f.Name, escapeHelp(f.Help)); err != nil {
				return err
			}
		}
		if f.Type != "" {
			if _, err := fmt.Fprintf(bw, "# TYPE %s %s\n", f.Name, f.Type); err != nil {
				return err
			}
		}
		for _, m := range f.Metrics {
			if err := writeMetric(bw, m); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

func writeMetric(w io.Writer, m Metric) error {
	var b strings.Builder
	b.WriteString(m.Name)
	if len(m.Labels) > 0 {
		b.WriteByte('{')
		for i, l := range m.Labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Name)
			b.WriteString(`="`)
			b.WriteString(escapeLabelValue(l.Value))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatValue(m.Value))
	if m.Timestamp != 0 {
		b.WriteByte(' ')
		b.WriteString(strconv.FormatInt(m.Timestamp, 10))
	}
	if e := m.Exemplar; e != nil {
		b.WriteString(" # {")
		for i, l := range e.Labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Name)
			b.WriteString(`="`)
			b.WriteString(escapeLabelValue(l.Value))
			b.WriteByte('"')
		}
		b.WriteString("} ")
		b.WriteString(formatValue(e.Value))
		if e.Timestamp != 0 {
			b.WriteByte(' ')
			b.WriteString(strconv.FormatInt(e.Timestamp, 10))
		}
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabelValue applies the exposition-format escaping rules: only
// backslash, double quote and newline are escaped.
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, "\\", "\\\\")
	return strings.ReplaceAll(s, "\n", "\\n")
}

// helpUnescaper undoes escapeHelp; any other backslash is kept as is.
var helpUnescaper = strings.NewReplacer(`\\`, `\`, `\n`, "\n")

// Parse reads an exposition document and returns all samples. HELP/TYPE
// comments are folded into the returned families; unknown comment lines are
// ignored, matching Prometheus scrape behaviour.
func Parse(r io.Reader) ([]Family, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	famIdx := map[string]int{}
	var fams []Family
	getFam := func(name string) *Family {
		if i, ok := famIdx[name]; ok {
			return &fams[i]
		}
		fams = append(fams, Family{Name: name})
		famIdx[name] = len(fams) - 1
		return &fams[len(fams)-1]
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) >= 3 {
				switch parts[1] {
				case "HELP":
					f := getFam(parts[2])
					if len(parts) == 4 {
						f.Help = parts[3]
						// Replace copies even when nothing matches, and
						// every scrape parses every HELP line.
						if strings.IndexByte(f.Help, '\\') >= 0 {
							f.Help = helpUnescaper.Replace(f.Help)
						}
					}
				case "TYPE":
					f := getFam(parts[2])
					if len(parts) == 4 {
						f.Type = parts[3]
					}
				}
			}
			continue
		}
		m, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("promtext: line %d: %w", lineNo, err)
		}
		f := getFam(m.Name)
		f.Metrics = append(f.Metrics, m)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return fams, nil
}

func parseSample(line string) (Metric, error) {
	var m Metric
	i := 0
	// metric name
	for i < len(line) && isNameChar(line[i], i == 0) {
		i++
	}
	if i == 0 {
		return m, fmt.Errorf("bad metric name in %q", line)
	}
	m.Name = line[:i]
	// optional label block
	if i < len(line) && line[i] == '{' {
		lbls, n, err := parseLabels(line[i:])
		if err != nil {
			return m, err
		}
		m.Labels = lbls
		i += n
	}
	rest := strings.TrimSpace(line[i:])
	// An exemplar may follow the value/timestamp: " # {labels} value [ts]".
	// The sample's own label block was consumed above, so the first '#'
	// here can only open an exemplar.
	var exPart string
	if j := strings.IndexByte(rest, '#'); j >= 0 {
		exPart = strings.TrimSpace(rest[j+1:])
		rest = strings.TrimSpace(rest[:j])
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return m, fmt.Errorf("missing value in %q", line)
	}
	v, err := parseFloat(fields[0])
	if err != nil {
		return m, fmt.Errorf("bad value %q: %w", fields[0], err)
	}
	m.Value = v
	if len(fields) > 1 {
		ts, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return m, fmt.Errorf("bad timestamp %q", fields[1])
		}
		m.Timestamp = ts
	}
	if exPart != "" {
		ex, err := parseExemplar(exPart)
		if err != nil {
			return m, fmt.Errorf("bad exemplar in %q: %w", line, err)
		}
		m.Exemplar = ex
	}
	return m, nil
}

// parseExemplar parses the part after "# ": `{labels} value [timestamp]`.
func parseExemplar(s string) (*Exemplar, error) {
	if len(s) == 0 || s[0] != '{' {
		return nil, fmt.Errorf("exemplar must start with '{' in %q", s)
	}
	lbls, n, err := parseLabels(s)
	if err != nil {
		return nil, err
	}
	fields := strings.Fields(s[n:])
	if len(fields) == 0 {
		return nil, fmt.Errorf("missing exemplar value in %q", s)
	}
	v, err := parseFloat(fields[0])
	if err != nil {
		return nil, fmt.Errorf("bad exemplar value %q: %w", fields[0], err)
	}
	ex := &Exemplar{Labels: lbls, Value: v}
	if len(fields) > 1 {
		ts, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad exemplar timestamp %q", fields[1])
		}
		ex.Timestamp = ts
	}
	return ex, nil
}

func parseFloat(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return strconv.ParseFloat("+Inf", 64)
	case "-Inf":
		return strconv.ParseFloat("-Inf", 64)
	case "NaN":
		return strconv.ParseFloat("NaN", 64)
	}
	return strconv.ParseFloat(s, 64)
}

// parseLabels parses the `{name="value",...}` block that opens s and
// returns the labels and the block's length. A quoted value may hold '}',
// ',' and escaped quotes, so the block ends at the first '}' outside one.
func parseLabels(s string) (labels.Labels, int, error) {
	var ls []labels.Label
	i := 1 // past '{'
	for {
		for i < len(s) && (s[i] == ',' || s[i] == ' ') {
			i++
		}
		if i >= len(s) {
			return nil, 0, fmt.Errorf("unterminated labels in %q", s)
		}
		if s[i] == '}' {
			break
		}
		start := i
		for i < len(s) && s[i] != '=' && s[i] != '}' {
			i++
		}
		if i >= len(s) || s[i] != '=' {
			return nil, 0, fmt.Errorf("bad label pair in %q", s)
		}
		name := strings.TrimSpace(s[start:i])
		i++ // '='
		if i >= len(s) || s[i] != '"' {
			return nil, 0, fmt.Errorf("unquoted label value in %q", s)
		}
		i++
		var b strings.Builder
		for i < len(s) && s[i] != '"' {
			if s[i] == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					b.WriteByte('\n')
				case '\\', '"':
					b.WriteByte(s[i])
				default:
					b.WriteByte('\\')
					b.WriteByte(s[i])
				}
			} else {
				b.WriteByte(s[i])
			}
			i++
		}
		if i >= len(s) {
			return nil, 0, fmt.Errorf("unterminated label value in %q", s)
		}
		i++ // closing quote
		ls = append(ls, labels.Label{Name: name, Value: b.String()})
	}
	sort.SliceStable(ls, func(a, b int) bool { return ls[a].Name < ls[b].Name })
	for j := 1; j < len(ls); j++ {
		if ls[j].Name == ls[j-1].Name {
			return nil, 0, fmt.Errorf("repeated label name %q in %q", ls[j].Name, s)
		}
	}
	return labels.Labels(ls), i + 1, nil
}

func isNameChar(c byte, first bool) bool {
	if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' {
		return true
	}
	return !first && c >= '0' && c <= '9'
}

// Samples flattens families into a single metric slice.
func Samples(fams []Family) []Metric {
	var out []Metric
	for _, f := range fams {
		out = append(out, f.Metrics...)
	}
	return out
}
