package frontend

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unicode"

	"shastamon/internal/labels"
)

// The metric-expression grammar both query languages share, above their
// leaves: one lexer, one parser for numbers, durations, {…} matcher
// lists, aggregations with by/without and the binary-operator
// precedence, the AST nodes for numbers, aggregations and binary
// operations, and their evaluation over the algebra in algebra.go. A
// Language plugs in only its leaves — LogQL's log selections and range
// aggregations, PromQL's selectors, range functions and absent — through
// one parse hook (Language.Leaf) and one eval hook (Eval's leaf).

// Language is what one query language plugs into the shared grammar.
type Language struct {
	// Name prefixes the language's errors: "logql" or "promql".
	Name string
	// Drop is the label that arithmetic and aggregation grouping remove
	// from their output, "" for none: PromQL's metric name.
	Drop string
	// LooseMatchers accepts a trailing comma in a {…} matcher list and
	// matchers without a comma between them, as PromQL always has.
	LooseMatchers bool
	// Leaf parses the operand at the parser's position that is neither a
	// number, a parenthesis nor an aggregation.
	Leaf func(p *Parser) (Expr, error)
}

// ---- lexer ----

// TokenKind classifies a token.
type TokenKind int

// Token kinds. Punctuation and operators are all TokSymbol; the token's
// text says which.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokString
	TokNumber
	TokDuration
	TokSymbol
)

var kindNames = [...]string{"EOF", "identifier", "string", "number", "duration", "symbol"}

func (k TokenKind) String() string { return kindNames[k] }

// Token is one lexed token. Text is the identifier, number, duration or
// symbol as written, or a string's decoded value.
type Token struct {
	Kind TokenKind
	Text string
	Pos  int
}

// Is reports whether t is the symbol sym.
func (t Token) Is(sym string) bool { return t.Kind == TokSymbol && t.Text == sym }

// describe names t in an error: its kind, or the symbol itself.
func (t Token) describe() string {
	if t.Kind == TokSymbol {
		return t.Text
	}
	return t.Kind.String()
}

// Lex splits src into tokens, ending with one TokEOF. It is the union of
// both languages' lexical forms: LogQL's pipe operators, PromQL's
// arithmetic and ':' in metric names, strings in double quotes, single
// quotes or backticks, and durations chaining d/w/h/m/s/ms/us/ns units.
func (l *Language) Lex(src string) ([]Token, error) {
	var toks []Token
	i := 0
	for {
		for i < len(src) && unicode.IsSpace(rune(src[i])) {
			i++
		}
		if i == len(src) {
			return append(toks, Token{TokEOF, "", i}), nil
		}
		start, c := i, src[i]
		switch {
		case strings.IndexByte("{}()[],+-*/", c) >= 0:
			i++
		case strings.IndexByte("|!=<>", c) >= 0:
			i++
			if i < len(src) {
				switch src[start : i+1] {
				case "|=", "|~", "!=", "!~", "=~", "==", ">=", "<=":
					i++
				}
			}
			if src[start:i] == "!" {
				return nil, l.lexErr(start, "unexpected '!'")
			}
		case c == '"' || c == '\'' || c == '`':
			s, end, err := l.lexString(src, i)
			if err != nil {
				return nil, err
			}
			toks = append(toks, Token{TokString, s, start})
			i = end
			continue
		case isDigit(c) || c == '.' && i+1 < len(src) && isDigit(src[i+1]):
			for i < len(src) && (isDigit(src[i]) || src[i] == '.') {
				i++
			}
			if i == len(src) || !isDurationUnit(src[i]) {
				toks = append(toks, Token{TokNumber, src[start:i], start})
				continue
			}
			for i < len(src) && (isDigit(src[i]) || src[i] == '.' || isDurationUnit(src[i])) {
				i++
			}
			if _, err := ParseDuration(src[start:i]); err != nil {
				return nil, l.lexErr(start, "bad duration %q: %v", src[start:i], err)
			}
			toks = append(toks, Token{TokDuration, src[start:i], start})
			continue
		case isIdentStart(c):
			for i < len(src) && (isIdentStart(src[i]) || isDigit(src[i])) {
				i++
			}
			toks = append(toks, Token{TokIdent, src[start:i], start})
			continue
		default:
			return nil, l.lexErr(start, "unexpected character %q", c)
		}
		toks = append(toks, Token{TokSymbol, src[start:i], start})
	}
}

// lexString decodes the string literal opening at src[i]. Backticks are
// raw; in quotes \n and \t decode, \\ \" \' \` stand for the character,
// and any other escape keeps its backslash, so a regexp's \. or \d
// reaches the regexp as written.
func (l *Language) lexString(src string, i int) (string, int, error) {
	quote := src[i]
	var b strings.Builder
	for j := i + 1; j < len(src); j++ {
		c := src[j]
		switch {
		case c == quote:
			return b.String(), j + 1, nil
		case c == '\\' && quote != '`' && j+1 < len(src):
			j++
			switch esc := src[j]; esc {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case '\\', '"', '\'', '`':
				b.WriteByte(esc)
			default:
				b.WriteByte('\\')
				b.WriteByte(esc)
			}
		default:
			b.WriteByte(c)
		}
	}
	return "", 0, l.lexErr(i, "unterminated string")
}

func (l *Language) lexErr(pos int, format string, args ...any) error {
	return fmt.Errorf("%s: lex error at %d: %s", l.Name, pos, fmt.Sprintf(format, args...))
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || c == ':' || unicode.IsLetter(rune(c)) }
func isDurationUnit(c byte) bool {
	return strings.IndexByte("smhdwun", c) >= 0
}

// ParseDuration extends time.ParseDuration with d (days) and w (weeks)
// units anywhere in a chain such as 1d12h, and rejects a duration that
// overflows.
func ParseDuration(s string) (time.Duration, error) {
	if d, err := time.ParseDuration(s); err == nil {
		return d, nil
	}
	var total time.Duration
	for i := 0; i < len(s); {
		j := i
		for j < len(s) && (isDigit(s[j]) || s[j] == '.') {
			j++
		}
		if j == i || j == len(s) {
			return 0, fmt.Errorf("invalid duration %q", s)
		}
		end := j + 1
		if s[j] != 'd' && s[j] != 'w' && end < len(s) && s[end] == 's' {
			end++ // ms, us, ns
		}
		var d time.Duration
		switch s[j] {
		case 'd', 'w':
			unit := 24 * time.Hour
			if s[j] == 'w' {
				unit *= 7
			}
			f, err := strconv.ParseFloat(s[i:j], 64)
			if f *= float64(unit); err != nil || f >= math.MaxInt64 {
				return 0, fmt.Errorf("invalid duration %q", s)
			}
			d = time.Duration(f)
		default:
			var err error
			if d, err = time.ParseDuration(s[i:end]); err != nil {
				return 0, err
			}
		}
		if total > math.MaxInt64-d {
			return 0, fmt.Errorf("invalid duration %q", s)
		}
		total += d
		i = end
	}
	return total, nil
}

// ---- rendering ----

// Quote renders s as a double-quoted string that Lex decodes back to s:
// only backslash, double quote, newline and tab are escaped.
func Quote(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\', '"':
			b.WriteByte('\\')
			b.WriteByte(c)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// FormatNumber renders v in shortest round-trip digits and never with an
// exponent, which Lex does not read.
func FormatNumber(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// FormatDuration renders d as time.Duration does, except that
// microseconds are "us", which Lex reads, rather than "µs".
func FormatDuration(d time.Duration) string { return strings.Replace(d.String(), "µs", "us", 1) }

// FormatMatcher renders one matcher as name<op>"value".
func FormatMatcher(m *labels.Matcher) string { return m.Name + m.Type.String() + Quote(m.Value) }

// FormatMatchers renders a matcher list as {a="b", c!~"d"}.
func FormatMatchers(sel []*labels.Matcher) string {
	parts := make([]string, len(sel))
	for i, m := range sel {
		parts[i] = FormatMatcher(m)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// ---- AST ----

// Expr is a parsed query expression of either language.
type Expr interface{ String() string }

// NumberExpr is a scalar literal.
type NumberExpr float64

func (n NumberExpr) String() string { return FormatNumber(float64(n)) }

// AggExpr is a vector aggregation: op [by|without (...)] ([k,] inner).
type AggExpr struct {
	Op       string // sum, min, max, avg, count, topk, bottomk
	Param    int    // k for topk/bottomk
	Inner    Expr
	Grouping []string
	Without  bool
}

func (a *AggExpr) String() string {
	g := ""
	if len(a.Grouping) > 0 {
		kw := "by"
		if a.Without {
			kw = "without"
		}
		g = fmt.Sprintf(" %s (%s)", kw, strings.Join(a.Grouping, ", "))
	}
	if a.Param > 0 {
		return fmt.Sprintf("%s(%d, %s)%s", a.Op, a.Param, a.Inner, g)
	}
	return fmt.Sprintf("%s(%s)%s", a.Op, a.Inner, g)
}

// BinExpr is arithmetic (+ - * /) or a comparison filter (> >= < <= ==
// !=) with a scalar literal on at least one side.
type BinExpr struct {
	Op       string
	LHS, RHS Expr
}

// String parenthesises an operand wherever precedence or left
// associativity would regroup it, or a comparison would chain, so that
// it parses back to the same tree: the results cache is keyed by this
// string.
func (b *BinExpr) String() string {
	prec := precedence[b.Op]
	l, r := b.LHS.String(), b.RHS.String()
	if c, ok := b.LHS.(*BinExpr); ok && (precedence[c.Op] < prec || precedence[c.Op] == cmpPrec && prec == cmpPrec) {
		l = "(" + l + ")"
	}
	if c, ok := b.RHS.(*BinExpr); ok && precedence[c.Op] <= prec {
		r = "(" + r + ")"
	}
	return l + " " + b.Op + " " + r
}

// cmpPrec is the comparisons' precedence, below + - and then * /.
const cmpPrec = 1

var precedence = map[string]int{
	">": cmpPrec, ">=": cmpPrec, "<": cmpPrec, "<=": cmpPrec, "==": cmpPrec, "!=": cmpPrec,
	"+": 2, "-": 2, "*": 3, "/": 3,
}

var aggregations = map[string]bool{
	"sum": true, "min": true, "max": true, "avg": true, "count": true, "topk": true, "bottomk": true,
}

// ---- parser ----

// Parser reads one query's tokens by recursive descent; a language's
// leaf hook reads its own syntax through the same methods.
type Parser struct {
	lang *Language
	src  string
	toks []Token
	pos  int
}

// Parse lexes src and parses it with top, which must leave nothing
// unread.
func (l *Language) Parse(src string, top func(p *Parser) (Expr, error)) (Expr, error) {
	toks, err := l.Lex(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{lang: l, src: src, toks: toks}
	e, err := top(p)
	if err != nil {
		return nil, err
	}
	if t := p.Peek(); t.Kind != TokEOF {
		return nil, p.Errf(t, "unexpected trailing %s %q", t.Kind, t.Text)
	}
	return e, nil
}

// Peek returns the next token without consuming it.
func (p *Parser) Peek() Token { return p.toks[p.pos] }

// Next consumes the next token; at the end it keeps returning TokEOF.
func (p *Parser) Next() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

// Accept consumes the next token if it is the symbol sym.
func (p *Parser) Accept(sym string) bool {
	if p.Peek().Is(sym) {
		p.pos++
		return true
	}
	return false
}

// Expect consumes the next token, which must be of kind k.
func (p *Parser) Expect(k TokenKind) (Token, error) {
	t := p.Next()
	if t.Kind != k {
		return t, p.Errf(t, "expected %s, got %s %q", k, t.describe(), t.Text)
	}
	return t, nil
}

// ExpectSym consumes the next token, which must be the symbol sym.
func (p *Parser) ExpectSym(sym string) error {
	if t := p.Next(); !t.Is(sym) {
		return p.Errf(t, "expected %s, got %s %q", sym, t.describe(), t.Text)
	}
	return nil
}

// Errf is a parse error at token t.
func (p *Parser) Errf(t Token, format string, args ...any) error {
	return fmt.Errorf("%s: parse error at %d in %q: %s", p.lang.Name, t.Pos, p.src, fmt.Sprintf(format, args...))
}

// Expr parses a metric expression: comparisons over + - over * /, left
// associative, comparisons not chaining, with parentheses.
func (p *Parser) Expr() (Expr, error) { return p.binary(cmpPrec) }

func (p *Parser) binary(minPrec int) (Expr, error) {
	lhs, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		op := p.Peek()
		prec := precedence[op.Text]
		if op.Kind != TokSymbol || prec < minPrec {
			return lhs, nil
		}
		p.Next()
		rhs, err := p.binary(prec + 1)
		if err != nil {
			return nil, err
		}
		if lhs, err = p.newBin(op, lhs, rhs); err != nil || prec == cmpPrec {
			return lhs, err
		}
	}
}

// newBin rejects the operand shapes the evaluator does not implement —
// it tells scalars from vectors by the same NumberExpr test — while the
// query is still a parse error, a 400, and not a failed evaluation.
func (p *Parser) newBin(op Token, lhs, rhs Expr) (Expr, error) {
	_, lScalar := lhs.(NumberExpr)
	_, rScalar := rhs.(NumberExpr)
	switch {
	case !lScalar && !rScalar:
		return nil, p.Errf(op, "vector-to-vector %q not supported in this subset", op.Text)
	case lScalar && rScalar && IsComparison(op.Text):
		return nil, p.Errf(op, "scalar comparison without vector operand")
	}
	return &BinExpr{Op: op.Text, LHS: lhs, RHS: rhs}, nil
}

func (p *Parser) primary() (Expr, error) {
	t := p.Peek()
	switch {
	case t.Kind == TokNumber:
		p.Next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.Errf(t, "bad number %q", t.Text)
		}
		return NumberExpr(v), nil
	case t.Is("("):
		p.Next()
		e, err := p.Expr()
		if err != nil {
			return nil, err
		}
		return e, p.ExpectSym(")")
	case t.Kind == TokIdent && aggregations[t.Text]:
		p.Next()
		return p.aggregation(t.Text)
	}
	return p.lang.Leaf(p)
}

// aggregation parses op [grouping] '(' [k ','] expr ')' [grouping], op
// already read.
func (p *Parser) aggregation(op string) (Expr, error) {
	agg := &AggExpr{Op: op}
	if err := p.grouping(agg); err != nil {
		return nil, err
	}
	if err := p.ExpectSym("("); err != nil {
		return nil, err
	}
	if op == "topk" || op == "bottomk" {
		kTok, err := p.Expect(TokNumber)
		if err != nil {
			return nil, err
		}
		if agg.Param, err = strconv.Atoi(kTok.Text); err != nil || agg.Param <= 0 {
			return nil, p.Errf(kTok, "bad k %q", kTok.Text)
		}
		if err := p.ExpectSym(","); err != nil {
			return nil, err
		}
	}
	inner, err := p.Expr()
	if err != nil {
		return nil, err
	}
	agg.Inner = inner
	if err := p.ExpectSym(")"); err != nil {
		return nil, err
	}
	return agg, p.grouping(agg)
}

// grouping parses an optional by/without (name, ...) clause into agg.
func (p *Parser) grouping(agg *AggExpr) error {
	t := p.Peek()
	if t.Kind != TokIdent || t.Text != "by" && t.Text != "without" {
		return nil
	}
	if agg.Grouping != nil {
		return p.Errf(t, "duplicate grouping clause")
	}
	p.Next()
	agg.Without = t.Text == "without"
	if err := p.ExpectSym("("); err != nil {
		return err
	}
	for {
		name, err := p.Expect(TokIdent)
		if err != nil {
			return err
		}
		agg.Grouping = append(agg.Grouping, name.Text)
		if !p.Accept(",") {
			return p.ExpectSym(")")
		}
	}
}

// MatchType maps a matcher symbol (= != =~ !~) to its match type.
func MatchType(sym string) (labels.MatchType, bool) {
	switch sym {
	case "=":
		return labels.MatchEqual, true
	case "!=":
		return labels.MatchNotEqual, true
	case "=~":
		return labels.MatchRegexp, true
	case "!~":
		return labels.MatchNotRegexp, true
	}
	return 0, false
}

// Matchers parses a {name<op>"value", ...} matcher list.
func (p *Parser) Matchers() (labels.Selector, error) {
	if err := p.ExpectSym("{"); err != nil {
		return nil, err
	}
	var sel labels.Selector
	if p.Accept("}") {
		return sel, nil
	}
	for {
		name, err := p.Expect(TokIdent)
		if err != nil {
			return nil, err
		}
		opTok := p.Next()
		mt, ok := MatchType(opTok.Text)
		if !ok || opTok.Kind != TokSymbol {
			return nil, p.Errf(opTok, "expected matcher operator, got %q", opTok.Text)
		}
		val, err := p.Expect(TokString)
		if err != nil {
			return nil, err
		}
		m, err := labels.NewMatcher(mt, name.Text, val.Text)
		if err != nil {
			return nil, err
		}
		sel = append(sel, m)
		comma := p.Accept(",")
		if (!comma || p.lang.LooseMatchers) && p.Accept("}") {
			return sel, nil
		}
		if !comma && !p.lang.LooseMatchers {
			t := p.Peek()
			return nil, p.Errf(t, "expected ',' or '}', got %q", t.Text)
		}
	}
}

// Range parses a [duration] range; bareSeconds also takes a plain
// number of seconds, as LogQL does.
func (p *Parser) Range(bareSeconds bool) (time.Duration, error) {
	if err := p.ExpectSym("["); err != nil {
		return 0, err
	}
	t := p.Next()
	text := t.Text
	switch {
	case t.Kind == TokNumber && bareSeconds:
		text += "s"
	case t.Kind != TokDuration:
		return 0, p.Errf(t, "expected duration, got %q", t.Text)
	}
	d, err := ParseDuration(text)
	if err != nil {
		return 0, p.Errf(t, "bad duration: %v", err)
	}
	return d, p.ExpectSym("]")
}

// ---- evaluation ----

// Eval evaluates expr at ts: numbers, aggregations and binary operations
// here over the shared algebra, every other node by the language's leaf.
func (l *Language) Eval(ctx context.Context, expr Expr, ts int64, leaf func(context.Context, Expr, int64) (Vector, error)) (Vector, error) {
	switch ex := expr.(type) {
	case NumberExpr:
		return Vector{{T: ts, V: float64(ex)}}, nil
	case *AggExpr:
		inner, err := l.Eval(ctx, ex.Inner, ts, leaf)
		if err != nil {
			return nil, err
		}
		var drop []string
		if l.Drop != "" {
			drop = []string{l.Drop}
		}
		return Aggregate(ex.Op, ex.Param, inner, ts, Grouping(ex.Grouping, ex.Without, drop...))
	case *BinExpr:
		lv, lScalar := ex.LHS.(NumberExpr)
		rv, rScalar := ex.RHS.(NumberExpr)
		switch {
		case lScalar && rScalar:
			return ScalarOp(ex.Op, Vector{{T: ts, V: float64(lv)}}, float64(rv), false, nil)
		case !lScalar && !rScalar:
			return nil, fmt.Errorf("%s: vector-to-vector %q not supported in this subset", l.Name, ex.Op)
		}
		vecSide, s := ex.LHS, float64(rv)
		if lScalar {
			vecSide, s = ex.RHS, float64(lv)
		}
		vec, err := l.Eval(ctx, vecSide, ts, leaf)
		if err != nil {
			return nil, err
		}
		var relabel func(labels.Labels) labels.Labels
		if l.Drop != "" {
			relabel = func(ls labels.Labels) labels.Labels { return ls.Without(l.Drop) }
		}
		return ScalarOp(ex.Op, vec, s, lScalar, relabel)
	}
	return leaf(ctx, expr, ts)
}

// Lookback is the furthest any sub-evaluation of expr reads before its
// step timestamp: the widest Lookback of its leaves.
func Lookback(expr Expr) time.Duration {
	switch ex := expr.(type) {
	case *AggExpr:
		return Lookback(ex.Inner)
	case *BinExpr:
		return max(Lookback(ex.LHS), Lookback(ex.RHS))
	case interface{ Lookback() time.Duration }:
		return ex.Lookback()
	}
	return 0
}
