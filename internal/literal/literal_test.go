package literal

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"unicode"

	"repro/internal/rdf"
	"repro/internal/store"
)

func TestIdentityNormalizer(t *testing.T) {
	if Identity(rdf.TypedLiteral("42", rdf.XSDInteger)) != "42" {
		t.Fatal("Identity should drop datatype decoration")
	}
}

func TestAlphaNum(t *testing.T) {
	cases := map[string]string{
		"213/467-1108":    "2134671108",
		"213-467-1108":    "2134671108",
		"Art's Deli":      "artsdeli",
		"ART'S DELI":      "artsdeli",
		"  spaced  out ":  "spacedout",
		"héllo-wörld":     "héllowörld",
		"":                "",
		"!!!":             "",
		"MiXeD 123 CaSe!": "mixed123case",
	}
	for in, want := range cases {
		if got := AlphaNum(rdf.Literal(in)); got != want {
			t.Errorf("AlphaNum(%q) = %q, want %q", in, got, want)
		}
	}
	// The paper's phone example: the two formats must collide.
	if AlphaNumString("213/467-1108") != AlphaNumString("213-467-1108") {
		t.Fatal("phone formats must normalize identically")
	}
}

// refAlphaNumString is the rune-by-rune fold AlphaNumString used before it
// gained its ASCII fast path, kept verbatim as the reference. The shard
// partitioner hashes the fold, so any difference would move keys between
// shards.
func refAlphaNumString(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(unicode.ToLower(r))
		}
	}
	return b.String()
}

// FuzzAlphaNumString requires the fold to return exactly the reference's
// string for any input, valid UTF-8 or not. CI runs it briefly as a smoke
// lane on every push.
func FuzzAlphaNumString(f *testing.F) {
	ascii := make([]byte, 128)
	for i := range ascii {
		ascii[i] = byte(i)
	}
	for _, seed := range []string{
		"",
		string(ascii),
		"<http://dbpedia.org/resource/Elvis_Presley>",
		"http://ikb.example.org/name/NM0042",
		"<http://dbpedia.org/resource/İstanbul>",
		"ΣΟΦΙΑ",
		"ǅemal",      // titlecase digraph
		"item １２",    // fullwidth digits
		"٠١٢٣٤٥٦٧٨٩", // Arabic-Indic digits
		"Straße",
		"300\u212a", // Kelvin sign, lowers to ASCII k
		"\xff",
		"ab\xffCD",
		"Zürich-2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := AlphaNumString(s), refAlphaNumString(s); got != want {
			t.Fatalf("AlphaNumString(%q) = %q, want %q", s, got, want)
		}
	})
}

func TestNumericNormalizer(t *testing.T) {
	a := Numeric(rdf.TypedLiteral("8900000", rdf.XSDInteger))
	b := Numeric(rdf.TypedLiteral("8.9e6", rdf.XSDDouble))
	c := Numeric(rdf.Literal("8900000.0"))
	if a != b || b != c {
		t.Fatalf("numeric forms differ: %q %q %q", a, b, c)
	}
	if Numeric(rdf.Literal("not a number")) != "not a number" {
		t.Fatal("non-numeric literal should pass through")
	}
}

func TestChain(t *testing.T) {
	n := Chain(Numeric, AlphaNum)
	if got := n(rdf.Literal("1.5E3")); got != "1500" {
		t.Fatalf("chained = %q, want 1500", got)
	}
}

func TestExact(t *testing.T) {
	if (Exact{}).Sim("a", "a") != 1 || (Exact{}).Sim("a", "b") != 0 {
		t.Fatal("Exact broken")
	}
}

func TestLevenshteinDistance(t *testing.T) {
	cases := []struct {
		a, b string
		d    int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"gumbo", "gambol", 2},
		{"日本語", "日本", 1},
	}
	for _, tc := range cases {
		if got := EditDistance([]rune(tc.a), []rune(tc.b)); got != tc.d {
			t.Errorf("EditDistance(%q,%q) = %d, want %d", tc.a, tc.b, got, tc.d)
		}
	}
}

func TestLevenshteinSim(t *testing.T) {
	l := Levenshtein{}
	if l.Sim("same", "same") != 1 {
		t.Fatal("identical strings must score 1")
	}
	got := l.Sim("kitten", "sitting")
	want := 1 - 3.0/7
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("sim = %v, want %v", got, want)
	}
	floor := Levenshtein{MinSim: 0.9}
	if floor.Sim("kitten", "sitting") != 0 {
		t.Fatal("similarity below floor must clamp to 0")
	}
}

func TestNumericProximity(t *testing.T) {
	n := NumericProximity{}
	if n.Sim("100", "100") != 1 {
		t.Fatal("equal numbers score 1")
	}
	if n.Sim("100", "200") != 0 {
		t.Fatal("100 vs 200 should be 0 at 10% tolerance")
	}
	got := n.Sim("100", "105")
	want := 1 - 5.0/(0.1*105)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("sim = %v, want %v", got, want)
	}
	if n.Sim("abc", "abc") != 1 || n.Sim("abc", "abd") != 0 {
		t.Fatal("non-numeric fallback broken")
	}
	if n.Sim("0", "0.0") != 1 {
		t.Fatal("0 == 0.0")
	}
}

func TestChecksum(t *testing.T) {
	c := Checksum{}
	if c.Sim("078-05-1120", "078051120") != 1 {
		t.Fatal("format-only difference must score 1")
	}
	if got := c.Sim("078051120", "078051121"); got != 0.9 {
		t.Fatalf("single substitution = %v, want 0.9", got)
	}
	if got := c.Sim("078051120", "078051210"); got != 0.9 {
		t.Fatalf("adjacent transposition = %v, want 0.9", got)
	}
	if c.Sim("078051120", "999999999") != 0 {
		t.Fatal("unrelated ids must score 0")
	}
	if c.Sim("abc", "abcd") != 0 {
		t.Fatal("length mismatch must score 0")
	}
}

// Property: all comparators are symmetric, bounded, and reflexive.
func TestQuickComparatorAxioms(t *testing.T) {
	comparators := []Comparator{
		Exact{}, Levenshtein{}, Levenshtein{MinSim: 0.5},
		NumericProximity{}, NumericProximity{Tolerance: 0.5}, Checksum{},
	}
	f := func(a, b string) bool {
		for _, c := range comparators {
			ab, ba := c.Sim(a, b), c.Sim(b, a)
			if math.Abs(ab-ba) > 1e-9 {
				return false
			}
			if ab < 0 || ab > 1 {
				return false
			}
			if c.Sim(a, a) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func buildOnt(t *testing.T, lits *store.Literals, norm store.Normalizer, values ...string) *store.Ontology {
	t.Helper()
	b := store.NewBuilder("t", lits, norm)
	for i, v := range values {
		subj := rdf.IRI("http://ex.org/s" + string(rune('a'+i)))
		if err := b.Add(rdf.T(subj, rdf.IRI("http://ex.org/name"), rdf.Literal(v))); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestIdentityMatcher(t *testing.T) {
	lits := store.NewLiterals()
	o := buildOnt(t, lits, nil, "Ann", "Bob")
	foreign := lits.Intern("Carol") // interned but absent from o
	m := IdentityMatcher{Target: o}
	ann, _ := lits.Lookup("Ann")
	bob, _ := lits.Lookup("Bob")
	prefix := []Weighted{{Lit: bob, P: 0.5}}
	got := m.AppendCandidates(prefix, ann)
	if len(got) != 2 || got[0] != prefix[0] || got[1].Lit != ann || got[1].P != 1 {
		t.Fatalf("candidates = %v", got)
	}
	if got := m.AppendCandidates(prefix, foreign); len(got) != 1 || got[0] != prefix[0] {
		t.Fatalf("literal absent from target must add no candidates, got %v", got)
	}
	// A hit appended into a reused buffer allocates nothing.
	buf := make([]Weighted, 0, 1)
	if n := testing.AllocsPerRun(100, func() { buf = m.AppendCandidates(buf[:0], ann) }); n != 0 {
		t.Fatalf("identity hit allocated %v times per lookup, want 0", n)
	}
}

func TestIndexFuzzyMatch(t *testing.T) {
	lits := store.NewLiterals()
	o := buildOnt(t, lits, nil, "Sanshiro Sugata", "Out 1", "Casablanca")
	// Block by first letter of the alphanumeric form so transliteration
	// variants land in the same bucket only if they share it; here we use a
	// constant block to compare all (dataset is tiny).
	ix := NewIndex(o, func(string) string { return "" }, Levenshtein{MinSim: 0.5}, WithMaxCandidates(2))
	q := lits.Intern("Sanshiro Sugato")
	// The cap applies to the appended candidates only; dst's prefix stays.
	prefix := Weighted{Lit: q, P: 0.25}
	got := ix.AppendCandidates([]Weighted{prefix}, q)
	if len(got) < 2 || len(got) > 3 || got[0] != prefix {
		t.Fatalf("appended candidates = %v, want the prefix then 1-2 candidates", got)
	}
	got = got[1:]
	best := got[0]
	if lits.Value(best.Lit) != "Sanshiro Sugata" {
		// maxCand sorting puts best first only when over cap; find it.
		found := false
		for _, w := range got {
			if lits.Value(w.Lit) == "Sanshiro Sugata" && w.P > 0.9 {
				found = true
			}
		}
		if !found {
			t.Fatalf("expected high-sim match, got %v", got)
		}
	}
}

func TestIndexBlocksSeparateBuckets(t *testing.T) {
	lits := store.NewLiterals()
	o := buildOnt(t, lits, nil, "apple", "apricot", "banana")
	ix := NewIndex(o, func(s string) string {
		if s == "" {
			return ""
		}
		return s[:1]
	}, Levenshtein{}, nil...)
	q := lits.Intern("aple")
	for _, w := range ix.AppendCandidates(nil, q) {
		if lits.Value(w.Lit)[0] != 'a' {
			t.Fatalf("candidate from wrong block: %v", lits.Value(w.Lit))
		}
	}
	missing := lits.Intern("zebra")
	if got := ix.AppendCandidates(nil, missing); got != nil {
		t.Fatalf("empty block should yield nil, got %v", got)
	}
}
