package logql

import (
	"testing"
	"time"

	"shastamon/internal/frontend"
)

// The lexer is the one frontend grammar's; these pin it on LogQL's
// inputs.

func kinds(toks []frontend.Token) []string {
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Kind.String()
		if t.Kind == frontend.TokSymbol {
			out[i] = t.Text
		}
	}
	return out
}

func TestLexSelector(t *testing.T) {
	toks, err := lang.Lex(`{app="fm", x!~"y.*"}`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"{", "identifier", "=", "string", ",", "identifier", "!~", "string", "}", "EOF"}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tok %d: got %s want %s", i, got[i], want[i])
		}
	}
	if toks[3].Text != "fm" {
		t.Fatalf("string text %q", toks[3].Text)
	}
}

func TestLexOperators(t *testing.T) {
	toks, err := lang.Lex(`|= != |~ !~ | > >= < <= == = =~`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"|=", "!=", "|~", "!~", "|", ">", ">=", "<", "<=", "==", "=", "=~", "EOF"}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tok %d: got %s want %s", i, got[i], want[i])
		}
	}
}

func TestLexDurationVsNumber(t *testing.T) {
	toks, err := lang.Lex(`[60m] 5 2.5 1h30m`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Kind != frontend.TokDuration || toks[1].Text != "60m" {
		t.Fatalf("60m: %v %q", toks[1].Kind, toks[1].Text)
	}
	if toks[3].Kind != frontend.TokNumber || toks[4].Kind != frontend.TokNumber {
		t.Fatal("numbers mislexed")
	}
	if toks[5].Kind != frontend.TokDuration || toks[5].Text != "1h30m" {
		t.Fatalf("1h30m: %v %q", toks[5].Kind, toks[5].Text)
	}
}

func TestLexStringEscapes(t *testing.T) {
	toks, err := lang.Lex(`"a\"b" 'c\'d' ` + "`raw\\n`")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != `a"b` {
		t.Fatalf("dq: %q", toks[0].Text)
	}
	if toks[1].Text != `c'd` {
		t.Fatalf("sq: %q", toks[1].Text)
	}
	if toks[2].Text != `raw\n` {
		t.Fatalf("raw: %q", toks[2].Text)
	}
}

func TestLexErrors(t *testing.T) {
	for _, in := range []string{`"unterminated`, `#`, `!x`} {
		if _, err := lang.Lex(in); err == nil {
			t.Errorf("no error for %q", in)
		}
	}
}

func TestParseDurationExtended(t *testing.T) {
	cases := map[string]time.Duration{
		"60m":   60 * time.Minute,
		"1h30m": 90 * time.Minute,
		"2d":    48 * time.Hour,
		"1w":    7 * 24 * time.Hour,
		"500ms": 500 * time.Millisecond,
		"1d12h": 36 * time.Hour,
	}
	for in, want := range cases {
		got, err := frontend.ParseDuration(in)
		if err != nil {
			t.Errorf("%s: %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("%s: got %v want %v", in, got, want)
		}
	}
	if _, err := frontend.ParseDuration("xx"); err == nil {
		t.Error("bad duration accepted")
	}
}
