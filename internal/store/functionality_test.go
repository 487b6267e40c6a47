package store

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
)

// buildFacts constructs an ontology from (subject, relation, object) string
// triples; objects starting with '"' become literals.
func buildFacts(t *testing.T, facts [][3]string) *Ontology {
	t.Helper()
	b := NewBuilder("test", NewLiterals(), nil)
	for _, f := range facts {
		var obj rdf.Term
		if f[2][0] == '"' {
			obj = rdf.Literal(f[2][1:])
		} else {
			obj = rdf.IRI(f[2])
		}
		if err := b.Add(rdf.T(rdf.IRI(f[0]), rdf.IRI(f[1]), obj)); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestFunctionalityOfFunction(t *testing.T) {
	// Every person born in exactly one place: fun = 1.
	o := buildFacts(t, [][3]string{
		{"p1", "bornIn", "london"},
		{"p2", "bornIn", "paris"},
		{"p3", "bornIn", "london"},
	})
	r, _ := o.LookupRelation("bornIn")
	if got := o.Fun(r); got != 1 {
		t.Fatalf("fun(bornIn) = %v, want 1", got)
	}
	// Inverse: london has 2 sources, paris 1: fun⁻¹ = 2/3.
	if got := o.InvFun(r); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("fun⁻¹(bornIn) = %v, want 2/3", got)
	}
}

// TestBuildFunctionalityCountsEachDirection: a resource that is both
// subject and object of one relation is a first argument in each direction,
// and a repeated literal object counts once. Build's counts must equal the
// recomputation from the statement lists.
func TestBuildFunctionalityCountsEachDirection(t *testing.T) {
	o := buildFacts(t, [][3]string{
		{"a", "knows", "b"},
		{"b", "knows", "c"},
		{"c", "knows", "a"},
		{"a", "knows", "a"},
		{"b", "knows", "a"},
		{"a", "name", `"x`},
		{"b", "name", `"x`},
		{"c", "name", `"y`},
		{"c", "name", `"x`},
		{"b", "alias", `"x`},
	})
	want := o.FunctionalityWith(FunHarmonicMean)
	for _, r := range o.Relations() {
		if o.Fun(r) != want[r] {
			t.Errorf("fun(%s) = %v after Build, %v recomputed", o.RelationName(r), o.Fun(r), want[r])
		}
	}
	for _, c := range []struct {
		rel         string
		fun, invFun float64
	}{
		{"knows", 3.0 / 5, 3.0 / 5}, // subjects a,b,c; objects a,b,c
		{"name", 3.0 / 4, 2.0 / 4},  // subjects a,b,c; objects "x","y"
		{"alias", 1, 1},
	} {
		r, _ := o.LookupRelation(c.rel)
		if o.Fun(r) != c.fun || o.InvFun(r) != c.invFun {
			t.Errorf("%s: fun %v, fun⁻¹ %v; want %v, %v", c.rel, o.Fun(r), o.InvFun(r), c.fun, c.invFun)
		}
	}
}

func TestFunctionalityMultiValued(t *testing.T) {
	// One person lives in two countries: fun = #subjects/#stmts = 1/2.
	o := buildFacts(t, [][3]string{
		{"p1", "livesIn", "uk"},
		{"p1", "livesIn", "france"},
	})
	r, _ := o.LookupRelation("livesIn")
	if got := o.Fun(r); got != 0.5 {
		t.Fatalf("fun(livesIn) = %v, want 0.5", got)
	}
}

func TestLocalFunctionality(t *testing.T) {
	o := buildFacts(t, [][3]string{
		{"p1", "livesIn", "uk"},
		{"p1", "livesIn", "france"},
		{"p2", "livesIn", "spain"},
	})
	r, _ := o.LookupRelation("livesIn")
	p1, _ := o.LookupResource(rdf.IRI("p1").Key())
	p2, _ := o.LookupResource(rdf.IRI("p2").Key())
	if got := o.LocalFun(r, p1); got != 0.5 {
		t.Fatalf("fun(livesIn, p1) = %v, want 0.5", got)
	}
	if got := o.LocalFun(r, p2); got != 1 {
		t.Fatalf("fun(livesIn, p2) = %v, want 1", got)
	}
	if got := o.LocalFun(r.Inverse(), p1); got != 0 {
		t.Fatalf("fun(livesIn⁻¹, p1) = %v, want 0 (no statements)", got)
	}
}

// Appendix A's dish example: n people all like the same n dishes. The
// arg-ratio definition wrongly assigns functionality 1; the harmonic mean
// assigns 1/n.
func TestFunctionalityDishCounterexample(t *testing.T) {
	const n = 5
	var facts [][3]string
	people := []string{"pa", "pb", "pc", "pd", "pe"}
	dishes := []string{"da", "db", "dc", "dd", "de"}
	for _, p := range people {
		for _, d := range dishes {
			facts = append(facts, [3]string{p, "likesDish", d})
		}
	}
	o := buildFacts(t, facts)
	r, _ := o.LookupRelation("likesDish")

	harmonic := o.FunctionalityWith(FunHarmonicMean)
	if got := harmonic[r]; math.Abs(got-1.0/n) > 1e-12 {
		t.Errorf("harmonic fun = %v, want %v", got, 1.0/n)
	}
	argRatio := o.FunctionalityWith(FunArgRatio)
	if got := argRatio[r]; got != 1 {
		t.Errorf("arg-ratio fun = %v, want 1 (the treacherous case)", got)
	}
}

func TestFunctionalityArithmeticVsHarmonic(t *testing.T) {
	// p1 has 1 target, p2 has 9: arithmetic mean (1 + 1/9)/2 ≈ 0.556,
	// harmonic 2/10 = 0.2. The harmonic mean is dominated by heavy sources.
	var facts [][3]string
	facts = append(facts, [3]string{"p1", "r", "t0"})
	for _, suffix := range []string{"1", "2", "3", "4", "5", "6", "7", "8", "9"} {
		facts = append(facts, [3]string{"p2", "r", "t" + suffix})
	}
	o := buildFacts(t, facts)
	r, _ := o.LookupRelation("r")
	h := o.FunctionalityWith(FunHarmonicMean)[r]
	a := o.FunctionalityWith(FunArithmeticMean)[r]
	if math.Abs(h-0.2) > 1e-12 {
		t.Errorf("harmonic = %v, want 0.2", h)
	}
	if math.Abs(a-(1+1.0/9)/2) > 1e-12 {
		t.Errorf("arithmetic = %v, want %v", a, (1+1.0/9)/2)
	}
	if a <= h {
		t.Error("arithmetic mean should exceed harmonic mean here")
	}
}

func TestFunctionalityPairRatio(t *testing.T) {
	// p1 -> 2 targets: ordered pairs = 4; p2 -> 1 target: pairs = 1.
	// pair-ratio = 3 / 5.
	o := buildFacts(t, [][3]string{
		{"p1", "r", "a"},
		{"p1", "r", "b"},
		{"p2", "r", "c"},
	})
	r, _ := o.LookupRelation("r")
	got := o.FunctionalityWith(FunPairRatio)[r]
	if math.Abs(got-3.0/5) > 1e-12 {
		t.Fatalf("pair-ratio = %v, want 0.6", got)
	}
}

func TestFunctionalityEmptyRelation(t *testing.T) {
	// A relation introduced only via subPropertyOf with no facts.
	b := NewBuilder("t", nil, nil)
	b.Add(rdf.T(rdf.IRI("p"), rdf.IRI(rdf.RDFSSubPropertyOf), rdf.IRI("q")))
	o := b.Build()
	p, _ := o.LookupRelation("p")
	if o.Fun(p) != 0 || o.InvFun(p) != 0 {
		t.Fatal("empty relation should have functionality 0")
	}
}

func TestFunModeString(t *testing.T) {
	modes := map[FunMode]string{
		FunHarmonicMean:   "harmonic-mean",
		FunPairRatio:      "pair-ratio",
		FunArgRatio:       "arg-ratio",
		FunArithmeticMean: "arithmetic-mean",
		FunMode(99):       "unknown",
	}
	for m, want := range modes {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), want)
		}
	}
}

// Property: for any relation with statements, every functionality definition
// yields a value in (0, 1], and the harmonic mean equals
// #sources / #statements exactly.
func TestQuickFunctionalityBounds(t *testing.T) {
	f := func(edges []uint8) bool {
		if len(edges) == 0 {
			return true
		}
		if len(edges) > 60 {
			edges = edges[:60]
		}
		b := NewBuilder("q", nil, nil)
		subjects := map[Node]bool{}
		n := 0
		for i, e := range edges {
			s := rdf.IRI(string(rune('a' + int(e)%8)))
			o := rdf.IRI(string(rune('A' + (i+int(e)/8)%16)))
			if err := b.Add(rdf.T(s, rdf.IRI("r"), o)); err != nil {
				return false
			}
			_ = subjects
			n++
		}
		onto := b.Build()
		r, ok := onto.LookupRelation("r")
		if !ok {
			return false
		}
		for _, mode := range []FunMode{FunHarmonicMean, FunPairRatio, FunArgRatio, FunArithmeticMean} {
			for _, rel := range []Relation{r, r.Inverse()} {
				v := onto.FunctionalityWith(mode)[rel]
				if v <= 0 || v > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
