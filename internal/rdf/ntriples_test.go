package rdf

import (
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestParseNTriplesBasic(t *testing.T) {
	doc := `
# a comment
<http://ex.org/Elvis> <http://ex.org/type> <http://ex.org/Singer> .
<http://ex.org/Elvis> <http://ex.org/name> "Elvis Presley" .

<http://ex.org/Elvis> <http://ex.org/born> "1935-01-08"^^<http://www.w3.org/2001/XMLSchema#date> .
_:b0 <http://ex.org/knows> <http://ex.org/Elvis> . # trailing comment
<http://ex.org/Elvis> <http://ex.org/label> "le Roi"@fr .
`
	triples, err := ParseNTriples(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(triples) != 5 {
		t.Fatalf("got %d triples, want 5", len(triples))
	}
	if triples[2].Object.Datatype != XSDDate {
		t.Errorf("datatype = %q, want xsd:date", triples[2].Object.Datatype)
	}
	if !triples[3].Subject.IsBlank() || triples[3].Subject.Value != "b0" {
		t.Errorf("blank subject parsed as %+v", triples[3].Subject)
	}
	if triples[4].Object.Lang != "fr" {
		t.Errorf("lang = %q, want fr", triples[4].Object.Lang)
	}
}

func TestParseNTriplesEscapes(t *testing.T) {
	doc := `<s> <p> "line1\nline2\ttab \"quoted\" \\ é \U0001F600" .`
	triples, err := ParseNTriples(doc)
	if err != nil {
		t.Fatal(err)
	}
	want := "line1\nline2\ttab \"quoted\" \\ é 😀"
	if got := triples[0].Object.Value; got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

// parseErrorCases are malformed documents every parser path must reject.
var parseErrorCases = []struct {
	name string
	doc  string
}{
	{"missing dot", `<s> <p> <o>`},
	{"unterminated iri", `<s> <p> <o .`},
	{"unterminated literal", `<s> <p> "abc .`},
	{"literal predicate", `<s> "p" <o> .`},
	{"trailing garbage", `<s> <p> <o> . extra`},
	{"dangling escape", `<s> <p> "abc\" .`},
	{"bad unicode escape", `<s> <p> "\uZZZZ" .`},
	{"empty iri", `<> <p> <o> .`},
	{"iri with space", `<a b> <p> <o> .`},
	{"empty blank label", `_: <p> <o> .`},
	{"junk term", `@s <p> <o> .`},
	{"truncated u escape", `<s> <p> "\u12" .`},
	{"unknown escape", `<s> <p> "\z" .`},
}

func TestParseNTriplesErrors(t *testing.T) {
	for _, tc := range parseErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseNTriples(tc.doc); err == nil {
				t.Fatalf("expected error for %q", tc.doc)
			}
		})
	}
}

// FuzzParseLine checks ParseLine against refParseLine, the line parser as it
// was before the one-pass term scan: the same triple, or a *ParseError at the
// same line and column with the same message.
func FuzzParseLine(f *testing.F) {
	for _, tc := range parseErrorCases {
		f.Add(tc.doc)
	}
	for _, line := range []string{
		`<http://ex.org/caf\u00e9> <http://ex.org/p> <http://ex.org/\U0001F600> .`,
		`<http://ex.org/a\\u0041> <http://ex.org/p> <http://ex.org/b\n> .`,
		`<http://ex.org/\uZZ> <http://ex.org/p> <o> .`,
		`<s> <p> <http://ex.org/a b`,
		`<s> <p> <a|b{c`,
		`<s> <p> <a\u00e9 "x" .`,
		`<a\u0020b> <p> <o> .`,
		`<s> <p> "tab\there \"q\" \\ \u00e9"@en-GB .`,
		`<s> <p> "1935-01-08"^^<http://www.w3.org/2001/XMLSchema#date> .`,
		`<s> <p> "v"^^<http://www.w3.org/2001/XMLSchema#string> .`,
		`<s> <p> "x"^^<a b> .`,
		`<s> <p> "x"^^<unterminated`,
		`<s> <p> "x"@ .`,
		`<s> <p> "x"^<t> .`,
		`_:b0 <p> "" . # comment`,
		`<s> <p> "esc\`,
	} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		const lineNo = 7
		want, wantErr := refParseLine(line, lineNo)
		got, err := ParseLine(line, lineNo)
		if wantErr != nil {
			want := wantErr.(*ParseError)
			pe, ok := err.(*ParseError)
			if !ok || *pe != *want {
				t.Fatalf("ParseLine(%q) error = %v, want %v", line, err, wantErr)
			}
			return
		}
		if err != nil || got != want {
			t.Fatalf("ParseLine(%q) = %+v, %v; want %+v", line, got, err, want)
		}
	})
}

func TestParseErrorHasPosition(t *testing.T) {
	_, err := ParseNTriples("<s> <p> <o> .\n<s> <p> bad .")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T, want *ParseError", err)
	}
	if pe.Line != 2 {
		t.Errorf("line = %d, want 2", pe.Line)
	}
	if !strings.Contains(pe.Error(), "line 2") {
		t.Errorf("message %q lacks position", pe.Error())
	}
}

func TestNTriplesNonStrictSkipsBadLines(t *testing.T) {
	doc := "<s> <p> <o> .\ngarbage line\n<s2> <p> <o2> .\n"
	r := NewNTriplesReader(strings.NewReader(doc))
	all, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("got %d triples, want 2", len(all))
	}
	if r.Skipped != 1 {
		t.Fatalf("Skipped = %d, want 1", r.Skipped)
	}
}

func TestNTriplesStrictFailsFast(t *testing.T) {
	r := NewNTriplesReader(strings.NewReader("garbage\n"))
	r.Strict = true
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Fatalf("want parse error, got %v", err)
	}
}

func TestNTriplesEmptyInput(t *testing.T) {
	r := NewNTriplesReader(strings.NewReader("\n# only comments\n\n"))
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
}

func TestWriteNTriplesRoundTrip(t *testing.T) {
	in := []Triple{
		T(IRI("http://ex.org/a"), IRI("http://ex.org/p"), IRI("http://ex.org/b")),
		T(IRI("http://ex.org/a"), IRI("http://ex.org/name"), Literal("Ann \"The Hammer\" Lee")),
		T(Blank("x"), IRI("http://ex.org/age"), TypedLiteral("42", XSDInteger)),
		T(IRI("http://ex.org/a"), IRI("http://ex.org/label"), LangLiteral("höhe", "de")),
	}
	var sb strings.Builder
	if err := WriteNTriples(&sb, in); err != nil {
		t.Fatal(err)
	}
	out, err := ParseNTriples(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d triples, want %d", len(out), len(in))
	}
	for i := range in {
		if !in[i].Equal(out[i]) {
			t.Errorf("triple %d: got %v, want %v", i, out[i], in[i])
		}
	}
}

func TestXSDStringDatatypeDropped(t *testing.T) {
	doc := `<s> <p> "v"^^<http://www.w3.org/2001/XMLSchema#string> .`
	triples, err := ParseNTriples(doc)
	if err != nil {
		t.Fatal(err)
	}
	if triples[0].Object.Datatype != "" {
		t.Fatalf("xsd:string should normalize to plain, got %q", triples[0].Object.Datatype)
	}
}

// refLineParser is the reference parser's cursor.
type refLineParser struct {
	s    string
	pos  int
	line int
}

func refParseLine(line string, lineNo int) (Triple, error) {
	p := &refLineParser{s: line, line: lineNo}
	subj, err := p.term()
	if err != nil {
		return Triple{}, err
	}
	p.skipWS()
	pred, err := p.term()
	if err != nil {
		return Triple{}, err
	}
	if !pred.IsIRI() {
		return Triple{}, p.errorf("predicate must be an IRI, got %s", pred.Kind)
	}
	p.skipWS()
	obj, err := p.term()
	if err != nil {
		return Triple{}, err
	}
	p.skipWS()
	if p.pos >= len(p.s) || p.s[p.pos] != '.' {
		return Triple{}, p.errorf("expected terminating '.'")
	}
	p.pos++
	p.skipWS()
	if p.pos < len(p.s) && p.s[p.pos] != '#' {
		return Triple{}, p.errorf("trailing content after '.'")
	}
	return Triple{Subject: subj, Predicate: pred, Object: obj}, nil
}

func (p *refLineParser) errorf(format string, args ...any) error {
	return &ParseError{Line: p.line, Col: p.pos + 1, Msg: fmt.Sprintf(format, args...)}
}

func (p *refLineParser) skipWS() {
	for p.pos < len(p.s) && (p.s[p.pos] == ' ' || p.s[p.pos] == '\t') {
		p.pos++
	}
}

// term parses one IRI, blank node, or literal at the cursor.
func (p *refLineParser) term() (Term, error) {
	p.skipWS()
	if p.pos >= len(p.s) {
		return Term{}, p.errorf("unexpected end of line")
	}
	switch p.s[p.pos] {
	case '<':
		return p.iri()
	case '_':
		return p.blank()
	case '"':
		return p.literal()
	default:
		return Term{}, p.errorf("unexpected character %q", p.s[p.pos])
	}
}

func (p *refLineParser) iri() (Term, error) {
	p.pos++ // consume '<'
	start := p.pos
	for p.pos < len(p.s) && p.s[p.pos] != '>' {
		p.pos++
	}
	if p.pos >= len(p.s) {
		return Term{}, p.errorf("unterminated IRI")
	}
	value := p.s[start:p.pos]
	p.pos++ // consume '>'
	if value == "" {
		return Term{}, p.errorf("empty IRI")
	}
	if strings.ContainsAny(value, " \t\"{}|^`") {
		return Term{}, p.errorf("invalid character in IRI %q", value)
	}
	if strings.Contains(value, "\\u") || strings.Contains(value, "\\U") {
		unescaped, err := unescape(value)
		if err != nil {
			return Term{}, p.errorf("bad IRI escape: %v", err)
		}
		value = unescaped
	}
	return IRI(value), nil
}

func (p *refLineParser) blank() (Term, error) {
	if p.pos+1 >= len(p.s) || p.s[p.pos+1] != ':' {
		return Term{}, p.errorf("malformed blank node")
	}
	p.pos += 2
	start := p.pos
	for p.pos < len(p.s) && !isTermBoundary(p.s[p.pos]) {
		p.pos++
	}
	label := p.s[start:p.pos]
	if label == "" {
		return Term{}, p.errorf("empty blank node label")
	}
	return Blank(label), nil
}

func (p *refLineParser) literal() (Term, error) {
	p.pos++ // consume opening quote
	var b strings.Builder
	for {
		if p.pos >= len(p.s) {
			return Term{}, p.errorf("unterminated literal")
		}
		c := p.s[p.pos]
		if c == '"' {
			p.pos++
			break
		}
		if c == '\\' {
			if p.pos+1 >= len(p.s) {
				return Term{}, p.errorf("dangling escape")
			}
			esc, n, err := decodeEscape(p.s[p.pos:])
			if err != nil {
				return Term{}, p.errorf("%v", err)
			}
			b.WriteString(esc)
			p.pos += n
			continue
		}
		b.WriteByte(c)
		p.pos++
	}
	t := Term{Kind: KindLiteral, Value: b.String()}
	// Optional language tag or datatype.
	if p.pos < len(p.s) {
		switch p.s[p.pos] {
		case '@':
			p.pos++
			start := p.pos
			for p.pos < len(p.s) && (isAlnum(p.s[p.pos]) || p.s[p.pos] == '-') {
				p.pos++
			}
			t.Lang = p.s[start:p.pos]
			if t.Lang == "" {
				return Term{}, p.errorf("empty language tag")
			}
		case '^':
			if p.pos+1 >= len(p.s) || p.s[p.pos+1] != '^' {
				return Term{}, p.errorf("malformed datatype marker")
			}
			p.pos += 2
			dt, err := p.iri()
			if err != nil {
				return Term{}, err
			}
			if dt.Value != XSDString {
				t.Datatype = dt.Value
			}
		}
	}
	return t, nil
}
