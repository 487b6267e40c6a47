package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// ParseError describes a syntax error at a specific line of the input.
type ParseError struct {
	Line int    // 1-based line number
	Col  int    // 1-based byte offset within the line
	Msg  string // description of the problem
}

// Error implements the error interface.
func (e *ParseError) Error() string {
	return fmt.Sprintf("rdf: parse error at line %d, col %d: %s", e.Line, e.Col, e.Msg)
}

// NTriplesReader parses the W3C N-Triples line-based format.
// It is tolerant of blank lines and '#' comments.
type NTriplesReader struct {
	scanner *bufio.Scanner
	line    int
	// Strict makes malformed lines fatal. When false (the default), malformed
	// lines are skipped and counted in Skipped. This mirrors how PARIS had to
	// cope with real-world dumps containing occasional garbage.
	Strict bool
	// Skipped counts malformed lines that were ignored in non-strict mode.
	Skipped int
}

// NewNTriplesReader returns a reader parsing from r.
func NewNTriplesReader(r io.Reader) *NTriplesReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return &NTriplesReader{scanner: sc}
}

// Next returns the next triple. It returns io.EOF when the input is
// exhausted. In non-strict mode malformed lines are skipped.
func (r *NTriplesReader) Next() (Triple, error) {
	for r.scanner.Scan() {
		r.line++
		line := strings.TrimSpace(r.scanner.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		t, err := parseNTriplesLine(line, r.line)
		if err != nil {
			if r.Strict {
				return Triple{}, err
			}
			r.Skipped++
			continue
		}
		return t, nil
	}
	if err := r.scanner.Err(); err != nil {
		return Triple{}, err
	}
	return Triple{}, io.EOF
}

// ReadAll drains the reader and returns all parsed triples.
func (r *NTriplesReader) ReadAll() ([]Triple, error) {
	var out []Triple
	for {
		t, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
}

// ParseLine parses a single N-Triples line (without its terminator).
// lineNo is the 1-based line number reported in errors. This is the exact
// per-line parser NTriplesReader uses, exported so the parallel ingest
// pipeline (internal/ingest) parses blocks with byte-identical semantics to
// a sequential read.
func ParseLine(line string, lineNo int) (Triple, error) {
	return parseNTriplesLine(line, lineNo)
}

// ParseNTriples parses a complete N-Triples document held in a string.
func ParseNTriples(doc string) ([]Triple, error) {
	r := NewNTriplesReader(strings.NewReader(doc))
	r.Strict = true
	return r.ReadAll()
}

// lineParser is a cursor over a single N-Triples line.
type lineParser struct {
	s    string
	pos  int
	line int
}

func parseNTriplesLine(line string, lineNo int) (Triple, error) {
	p := &lineParser{s: line, line: lineNo}
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

func (p *lineParser) errorf(format string, args ...any) error {
	return &ParseError{Line: p.line, Col: p.pos + 1, Msg: fmt.Sprintf(format, args...)}
}

func (p *lineParser) skipWS() {
	for p.pos < len(p.s) && (p.s[p.pos] == ' ' || p.s[p.pos] == '\t') {
		p.pos++
	}
}

// term parses one IRI, blank node, or literal at the cursor.
func (p *lineParser) term() (Term, error) {
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

// IRI body byte classes, combined with | by the scan in iri.
const (
	iriForbidden = 1 << iota // may not appear unescaped: space, tab, "{}|^`
	iriBackslash             // may start a \u or \U escape
	iriEnd                   // '>' closes the IRI
)

// iriClass classifies every byte value for the one-pass IRI scan.
var iriClass = [256]uint8{
	' ': iriForbidden, '\t': iriForbidden, '"': iriForbidden, '{': iriForbidden,
	'}': iriForbidden, '|': iriForbidden, '^': iriForbidden, '`': iriForbidden,
	'\\': iriBackslash,
	'>':  iriEnd,
}

// iri parses an IRI in one pass over its body, which finds the closing '>'
// and notes forbidden characters and backslashes on the way. The checks then
// run in a fixed order — unterminated, empty, forbidden character, bad
// escape — and only a body with a backslash is searched for escapes.
func (p *lineParser) iri() (Term, error) {
	start := p.pos + 1 // after '<'
	s, i := p.s, start
	var seen uint8
	for ; i < len(s); i++ {
		c := iriClass[s[i]]
		if c == iriEnd {
			break
		}
		seen |= c
	}
	p.pos = i
	if p.pos >= len(p.s) {
		return Term{}, p.errorf("unterminated IRI")
	}
	value := p.s[start:p.pos]
	p.pos++ // consume '>'
	if value == "" {
		return Term{}, p.errorf("empty IRI")
	}
	if seen&iriForbidden != 0 {
		return Term{}, p.errorf("invalid character in IRI %q", value)
	}
	if seen&iriBackslash != 0 && (strings.Contains(value, "\\u") || strings.Contains(value, "\\U")) {
		unescaped, err := unescape(value)
		if err != nil {
			return Term{}, p.errorf("bad IRI escape: %v", err)
		}
		value = unescaped
	}
	return IRI(value), nil
}

func (p *lineParser) blank() (Term, error) {
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

func isTermBoundary(c byte) bool {
	return c == ' ' || c == '\t' || c == '.' || c == '<' || c == '"'
}

// literal parses a quoted literal with its optional language tag or
// datatype. A value without escapes is a substring of the line; only a value
// with a backslash before its closing quote is decoded into a new string.
func (p *lineParser) literal() (Term, error) {
	start := p.pos + 1 // after the opening quote
	s, i := p.s, start
	for i < len(s) && s[i] != '"' && s[i] != '\\' {
		i++
	}
	p.pos = i
	var value string
	if p.pos < len(p.s) && p.s[p.pos] == '"' {
		value = p.s[start:p.pos]
		p.pos++
	} else {
		var err error
		if value, err = p.escapedLiteral(start); err != nil {
			return Term{}, err
		}
	}
	t := Term{Kind: KindLiteral, Value: value}
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

// escapedLiteral decodes a literal value that starts at start and has its
// first backslash, or the end of the line, at the cursor. It leaves the
// cursor after the closing quote.
func (p *lineParser) escapedLiteral(start int) (string, error) {
	var b strings.Builder
	b.WriteString(p.s[start:p.pos])
	for {
		if p.pos >= len(p.s) {
			return "", p.errorf("unterminated literal")
		}
		c := p.s[p.pos]
		if c == '"' {
			p.pos++
			return b.String(), nil
		}
		if c == '\\' {
			if p.pos+1 >= len(p.s) {
				return "", p.errorf("dangling escape")
			}
			esc, n, err := decodeEscape(p.s[p.pos:])
			if err != nil {
				return "", p.errorf("%v", err)
			}
			b.WriteString(esc)
			p.pos += n
			continue
		}
		b.WriteByte(c)
		p.pos++
	}
}

func isAlnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// decodeEscape decodes one backslash escape at the start of s, returning the
// decoded string and the number of input bytes consumed.
func decodeEscape(s string) (string, int, error) {
	if len(s) < 2 || s[0] != '\\' {
		return "", 0, fmt.Errorf("not an escape: %q", s)
	}
	switch s[1] {
	case 't':
		return "\t", 2, nil
	case 'b':
		return "\b", 2, nil
	case 'n':
		return "\n", 2, nil
	case 'r':
		return "\r", 2, nil
	case 'f':
		return "\f", 2, nil
	case '"':
		return `"`, 2, nil
	case '\'':
		return "'", 2, nil
	case '\\':
		return `\`, 2, nil
	case 'u':
		if len(s) < 6 {
			return "", 0, fmt.Errorf("truncated \\u escape")
		}
		r, err := hexRune(s[2:6])
		if err != nil {
			return "", 0, err
		}
		return string(r), 6, nil
	case 'U':
		if len(s) < 10 {
			return "", 0, fmt.Errorf("truncated \\U escape")
		}
		r, err := hexRune(s[2:10])
		if err != nil {
			return "", 0, err
		}
		return string(r), 10, nil
	default:
		return "", 0, fmt.Errorf("unknown escape \\%c", s[1])
	}
}

func hexRune(hex string) (rune, error) {
	var v rune
	for i := 0; i < len(hex); i++ {
		c := hex[i]
		var d rune
		switch {
		case c >= '0' && c <= '9':
			d = rune(c - '0')
		case c >= 'a' && c <= 'f':
			d = rune(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = rune(c-'A') + 10
		default:
			return 0, fmt.Errorf("bad hex digit %q", c)
		}
		v = v<<4 | d
	}
	if !utf8.ValidRune(v) {
		return 0, fmt.Errorf("escape decodes to invalid rune %#x", v)
	}
	return v, nil
}

// unescape decodes \uXXXX and \UXXXXXXXX sequences in an IRI.
func unescape(s string) (string, error) {
	var b strings.Builder
	for i := 0; i < len(s); {
		if s[i] == '\\' {
			dec, n, err := decodeEscape(s[i:])
			if err != nil {
				return "", err
			}
			b.WriteString(dec)
			i += n
			continue
		}
		b.WriteByte(s[i])
		i++
	}
	return b.String(), nil
}

// WriteNTriples serializes triples to w in N-Triples format.
func WriteNTriples(w io.Writer, triples []Triple) error {
	bw := bufio.NewWriter(w)
	for _, t := range triples {
		if _, err := bw.WriteString(t.String()); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
