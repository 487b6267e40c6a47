// Package literal implements the literal-equivalence functions of Section
// 5.3 of the PARIS paper. The probability that two literals are equal is
// known a priori and clamped: it never changes during the fixpoint
// iteration.
//
// Two mechanisms are provided, mirroring the paper:
//
//   - Normalizers map a literal to the canonical string under which it is
//     interned, so that "identical after normalization" becomes identity on
//     literal IDs (the paper's own implementation strategy).
//   - Comparators score the similarity of two literal strings in [0, 1] and
//     back fuzzy matchers for applications that need more than identity.
package literal

import (
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/rdf"
)

// Identity returns the lexical form unchanged, dropping datatype and
// language decoration. This is the paper's default equality: probability 1
// iff the lexical forms are identical, 0 otherwise.
func Identity(t rdf.Term) string { return t.Value }

// AlphaNum lowercases the lexical form and removes every non-alphanumeric
// character. This is the "different string equality measure" of Section 6.3
// that lifts the restaurant experiment to 100% precision: it makes
// "213/467-1108" and "213-467-1108" identical.
func AlphaNum(t rdf.Term) string {
	return AlphaNumString(t.Value)
}

// AlphaNumString applies the AlphaNum normalization to a raw string. ASCII
// input is folded byte by byte; the first byte >= 0x80 (a multi-byte rune
// or invalid UTF-8) hands the whole string to the Unicode loop, so the
// result is the same either way. The shard partitioner hashes this fold,
// so its output must never change.
func AlphaNumString(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= utf8.RuneSelf:
			return alphaNumRunes(s)
		case 'a' <= c && c <= 'z', '0' <= c && c <= '9':
			b.WriteByte(c)
		case 'A' <= c && c <= 'Z':
			b.WriteByte(c + ('a' - 'A'))
		}
	}
	return b.String()
}

// alphaNumRunes is AlphaNumString for input that is not all ASCII: it keeps
// Unicode letters and digits, lowercased. An invalid byte decodes to
// U+FFFD, which is neither, so it is dropped.
func alphaNumRunes(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(unicode.ToLower(r))
		}
	}
	return b.String()
}

// Numeric canonicalizes numeric literals so that "8900000", "8900000.0" and
// "8.9e6" intern to the same string; non-numeric literals fall back to
// Identity. It implements the paper's "normalize numeric values by removing
// all data type or dimension information".
func Numeric(t rdf.Term) string {
	return NumericString(t.Value)
}

// NumericString applies the Numeric normalization to a raw string.
func NumericString(s string) string {
	trimmed := strings.TrimSpace(s)
	if f, err := strconv.ParseFloat(trimmed, 64); err == nil {
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
	return s
}

// Chain composes normalizers left to right.
func Chain(ns ...func(rdf.Term) string) func(rdf.Term) string {
	return func(t rdf.Term) string {
		for _, n := range ns {
			t = rdf.Literal(n(t))
		}
		return t.Value
	}
}

// Comparator scores the similarity of two literal strings. Implementations
// must be symmetric, return values in [0, 1], and score 1 for identical
// strings.
type Comparator interface {
	Sim(a, b string) float64
}

// Exact scores 1 for identical strings and 0 otherwise.
type Exact struct{}

// Sim implements Comparator.
func (Exact) Sim(a, b string) float64 {
	if a == b {
		return 1
	}
	return 0
}

// Levenshtein scores two strings as 1 - d/max(len) where d is the edit
// distance, i.e. "inverse proportional to their edit distance" (Section
// 5.3). Similarities below MinSim are truncated to 0 so that wildly
// different strings contribute no evidence.
type Levenshtein struct {
	// MinSim is the similarity floor; scores below it become 0.
	// A zero value means no floor.
	MinSim float64
}

// Sim implements Comparator.
func (l Levenshtein) Sim(a, b string) float64 {
	if a == b {
		return 1
	}
	ra, rb := []rune(a), []rune(b)
	maxLen := len(ra)
	if len(rb) > maxLen {
		maxLen = len(rb)
	}
	if maxLen == 0 {
		return 1
	}
	d := EditDistance(ra, rb)
	sim := 1 - float64(d)/float64(maxLen)
	if sim < l.MinSim {
		return 0
	}
	return sim
}

// EditDistance computes the Levenshtein distance between two rune slices
// using the two-row dynamic program.
func EditDistance(a, b []rune) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = minInt(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func minInt(vals ...int) int {
	m := vals[0]
	for _, v := range vals[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// NumericProximity scores two numeric strings as a function of their
// proportional difference: sim = max(0, 1 - |a-b| / (Tolerance * max(|a|,|b|))).
// Non-numeric inputs score with Exact. This realizes the paper's "function
// of their proportional difference" for values of the same dimension.
type NumericProximity struct {
	// Tolerance is the proportional difference at which similarity reaches
	// 0. A zero value defaults to 0.1 (10%).
	Tolerance float64
}

// Sim implements Comparator.
func (n NumericProximity) Sim(a, b string) float64 {
	fa, errA := strconv.ParseFloat(strings.TrimSpace(a), 64)
	fb, errB := strconv.ParseFloat(strings.TrimSpace(b), 64)
	if errA != nil || errB != nil {
		return Exact{}.Sim(a, b)
	}
	if fa == fb {
		return 1
	}
	tol := n.Tolerance
	if tol == 0 {
		tol = 0.1
	}
	den := abs(fa)
	if abs(fb) > den {
		den = abs(fb)
	}
	if den == 0 {
		return 0
	}
	sim := 1 - abs(fa-fb)/(tol*den)
	if sim < 0 {
		return 0
	}
	return sim
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

// Checksum scores identifier-like strings (social security numbers, ISBNs,
// phone numbers) robustly against common misspellings: it strips all
// non-alphanumeric characters and then tolerates a single substituted
// character or a single transposition, the two errors checksum schemes are
// designed to catch (Section 5.3).
type Checksum struct{}

// Sim implements Comparator.
func (Checksum) Sim(a, b string) float64 {
	na, nb := AlphaNumString(a), AlphaNumString(b)
	if na == nb {
		return 1
	}
	if len(na) != len(nb) || len(na) == 0 {
		return 0
	}
	// Single substitution.
	diff := 0
	firstDiff := -1
	for i := 0; i < len(na); i++ {
		if na[i] != nb[i] {
			if diff == 0 {
				firstDiff = i
			}
			diff++
			if diff > 2 {
				return 0
			}
		}
	}
	if diff == 1 {
		return 0.9
	}
	// Adjacent transposition.
	if diff == 2 && firstDiff+1 < len(na) &&
		na[firstDiff] == nb[firstDiff+1] && na[firstDiff+1] == nb[firstDiff] {
		return 0.9
	}
	return 0
}
