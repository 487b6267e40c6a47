package store

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/rdf"
)

func ex(name string) rdf.Term { return rdf.IRI("http://ex.org/" + name) }

func mustBuild(t *testing.T, doc string) *Ontology {
	t.Helper()
	triples, err := rdf.ParseNTriples(doc)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder("test", NewLiterals(), nil)
	if err := b.AddAll(triples); err != nil {
		t.Fatal(err)
	}
	return b.Build()
}

func TestNodeEncoding(t *testing.T) {
	r := ResNode(42)
	if r.IsLit() || r.Res() != 42 {
		t.Fatalf("resource node broken: %v", r)
	}
	l := LitNode(7)
	if !l.IsLit() || l.Lit() != 7 {
		t.Fatalf("literal node broken: %v", l)
	}
}

func TestRelationInverse(t *testing.T) {
	r := Relation(4)
	if r.Inverse() != 5 || r.Inverse().Inverse() != r {
		t.Fatal("Inverse is not an involution on base relations")
	}
	if r.IsInverse() || !r.Inverse().IsInverse() {
		t.Fatal("IsInverse wrong")
	}
	if r.Inverse().Base() != r {
		t.Fatal("Base wrong")
	}
}

func TestQuickNodeRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		v &= 1<<31 - 1
		return ResNode(Resource(v)).Res() == Resource(v) &&
			LitNode(Lit(v)).Lit() == Lit(v) &&
			!ResNode(Resource(v)).IsLit() && LitNode(Lit(v)).IsLit()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLiteralsIntern(t *testing.T) {
	ls := NewLiterals()
	a := ls.Intern("x")
	b := ls.Intern("y")
	if a == b {
		t.Fatal("distinct strings interned to same ID")
	}
	if ls.Intern("x") != a {
		t.Fatal("re-interning gave a new ID")
	}
	if ls.Value(a) != "x" || ls.Value(b) != "y" {
		t.Fatal("Value mismatch")
	}
	if got, ok := ls.Lookup("y"); !ok || got != b {
		t.Fatal("Lookup mismatch")
	}
	if _, ok := ls.Lookup("z"); ok {
		t.Fatal("Lookup found missing literal")
	}
	if ls.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ls.Len())
	}
}

func TestAppendKeyMatchesKey(t *testing.T) {
	for _, term := range []rdf.Term{
		ex("Elvis"), rdf.Blank("b0"), rdf.Literal("x"),
		rdf.LangLiteral("x", "en"), rdf.TypedLiteral("1", rdf.XSDString),
		rdf.TypedLiteral("1", "http://www.w3.org/2001/XMLSchema#integer"),
	} {
		if got, want := string(appendKey([]byte("stale"), term)[len("stale"):]), term.Key(); got != want {
			t.Errorf("appendKey(%v) = %q, want %q", term, got, want)
		}
	}
}

// TestBuilderCopiesKeptStrings: the ingest pipeline's terms are substrings
// of a whole parse block, so every string the builder keeps must be a copy,
// or the ontology pins each block it was loaded from.
func TestBuilderCopiesKeptStrings(t *testing.T) {
	block := strings.Repeat("#", 64) + "http://ex.org/Elvis http://ex.org/name Elvis"
	start := uintptr(unsafe.Pointer(unsafe.StringData(block)))
	inBlock := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return p >= start && p < start+uintptr(len(block))
	}
	sub := func(s string) string {
		i := strings.Index(block, s)
		return block[i : i+len(s)]
	}
	b := NewBuilder("test", NewLiterals(), nil)
	if err := b.Add(rdf.T(rdf.IRI(sub("http://ex.org/Elvis")), rdf.IRI(sub("http://ex.org/name")),
		rdf.Literal(sub("Elvis")))); err != nil {
		t.Fatal(err)
	}
	o := b.Build()
	for what, s := range map[string]string{
		"resource key":  o.ResourceKey(0),
		"relation name": o.RelationName(0),
		"literal":       o.Literals().Value(0),
	} {
		if inBlock(s) {
			t.Errorf("%s %q shares the parse block's memory", what, s)
		}
	}
}

func TestBuildBasicFactsAndEdges(t *testing.T) {
	o := mustBuild(t, `
<http://ex.org/Elvis> <http://ex.org/bornIn> <http://ex.org/Tupelo> .
<http://ex.org/Elvis> <http://ex.org/name> "Elvis" .
<http://ex.org/Priscilla> <http://ex.org/marriedTo> <http://ex.org/Elvis> .
`)
	if o.NumFacts() != 3 {
		t.Fatalf("facts = %d, want 3", o.NumFacts())
	}
	elvis, ok := o.LookupResource(ex("Elvis").Key())
	if !ok {
		t.Fatal("Elvis not interned")
	}
	edges := o.Edges(elvis)
	// Elvis has: bornIn(E,T), name(E,"Elvis"), marriedTo⁻¹(E,P).
	if len(edges) != 3 {
		t.Fatalf("Elvis has %d edges, want 3: %v", len(edges), edges)
	}
	var sawInverse, sawLit bool
	for _, e := range edges {
		if e.Rel.IsInverse() {
			sawInverse = true
		}
		if e.To.IsLit() {
			sawLit = true
		}
	}
	if !sawInverse {
		t.Error("no inverse edge materialized at Elvis")
	}
	if !sawLit {
		t.Error("no literal edge at Elvis")
	}
}

func TestLitEdges(t *testing.T) {
	o := mustBuild(t, `
<http://ex.org/a> <http://ex.org/name> "Ann" .
<http://ex.org/b> <http://ex.org/name> "Ann" .
`)
	l, ok := o.Literals().Lookup("Ann")
	if !ok {
		t.Fatal("literal not interned")
	}
	edges := o.LitEdges(l)
	if len(edges) != 2 {
		t.Fatalf("lit edges = %d, want 2", len(edges))
	}
	for _, e := range edges {
		if !e.Rel.IsInverse() {
			t.Errorf("literal edge not inverse: %v", e)
		}
	}
	if !o.HasLiteral(l) {
		t.Error("HasLiteral false for present literal")
	}
}

func TestFactDeduplication(t *testing.T) {
	o := mustBuild(t, `
<http://ex.org/a> <http://ex.org/p> <http://ex.org/b> .
<http://ex.org/a> <http://ex.org/p> <http://ex.org/b> .
`)
	if o.NumFacts() != 1 {
		t.Fatalf("facts = %d, want 1 after dedup", o.NumFacts())
	}
}

func TestTypeAndClassClosure(t *testing.T) {
	o := mustBuild(t, `
<http://ex.org/singer> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://ex.org/artist> .
<http://ex.org/artist> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://ex.org/person> .
<http://ex.org/Elvis> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex.org/singer> .
<http://ex.org/Ann> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex.org/person> .
`)
	elvis, _ := o.LookupResource(ex("Elvis").Key())
	classes := o.ClassesOf(elvis)
	if len(classes) != 3 {
		t.Fatalf("Elvis classes = %d, want 3 (singer, artist, person)", len(classes))
	}
	person, _ := o.LookupResource(ex("person").Key())
	insts := o.InstancesOf(person)
	if len(insts) != 2 {
		t.Fatalf("person instances = %d, want 2", len(insts))
	}
	if o.NumClasses() != 3 {
		t.Fatalf("classes = %d, want 3", o.NumClasses())
	}
	if o.NumInstances() != 2 {
		t.Fatalf("instances = %d, want 2", o.NumInstances())
	}
	singer, _ := o.LookupResource(ex("singer").Key())
	if !o.IsClass(singer) || o.IsClass(elvis) {
		t.Fatal("IsClass wrong")
	}
}

func TestClassClosureTolerantOfCycles(t *testing.T) {
	o := mustBuild(t, `
<http://ex.org/a> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://ex.org/b> .
<http://ex.org/b> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://ex.org/a> .
<http://ex.org/x> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex.org/a> .
`)
	x, _ := o.LookupResource(ex("x").Key())
	classes := o.ClassesOf(x)
	if len(classes) != 2 {
		t.Fatalf("x classes = %d, want 2 despite cycle", len(classes))
	}
}

func TestSubPropertyClosure(t *testing.T) {
	o := mustBuild(t, `
<http://ex.org/hasCapital> <http://www.w3.org/2000/01/rdf-schema#subPropertyOf> <http://ex.org/hasCity> .
<http://ex.org/hasCity> <http://www.w3.org/2000/01/rdf-schema#subPropertyOf> <http://ex.org/contains> .
<http://ex.org/UK> <http://ex.org/hasCapital> <http://ex.org/London> .
`)
	// hasCapital(UK,London) must imply hasCity and contains.
	if o.NumFacts() != 3 {
		t.Fatalf("facts = %d, want 3 after sub-property closure", o.NumFacts())
	}
	uk, _ := o.LookupResource(ex("UK").Key())
	rels := map[string]bool{}
	for _, e := range o.Edges(uk) {
		rels[o.RelationName(e.Rel)] = true
	}
	for _, want := range []string{"http://ex.org/hasCapital", "http://ex.org/hasCity", "http://ex.org/contains"} {
		if !rels[want] {
			t.Errorf("missing closed fact for %s", want)
		}
	}
}

func TestEachStatementInverseSwaps(t *testing.T) {
	o := mustBuild(t, `
<http://ex.org/a> <http://ex.org/p> "v" .
`)
	p, _ := o.LookupRelation("http://ex.org/p")
	var base, inv []Stmt
	o.EachStatement(p, func(s, obj Node) bool {
		base = append(base, Stmt{s, obj})
		return true
	})
	o.EachStatement(p.Inverse(), func(s, obj Node) bool {
		inv = append(inv, Stmt{s, obj})
		return true
	})
	if len(base) != 1 || len(inv) != 1 {
		t.Fatalf("statement counts: base %d inv %d", len(base), len(inv))
	}
	if base[0].S != inv[0].O || base[0].O != inv[0].S {
		t.Fatal("inverse iteration did not swap arguments")
	}
	if !inv[0].S.IsLit() {
		t.Fatal("inverse subject should be the literal")
	}
	// Early stop must be honored.
	calls := 0
	o.EachStatement(p, func(s, obj Node) bool { calls++; return false })
	if calls != 1 {
		t.Fatalf("early stop ignored, %d calls", calls)
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder("t", nil, nil)
	bad := []rdf.Triple{
		rdf.T(rdf.Literal("x"), ex("p"), ex("y")),
		rdf.T(ex("x"), rdf.Literal("p"), ex("y")),
		rdf.T(ex("x"), rdf.IRI(rdf.RDFType), rdf.Literal("c")),
		rdf.T(ex("x"), rdf.IRI(rdf.RDFSSubClassOf), rdf.Literal("c")),
		rdf.T(ex("x"), rdf.IRI(rdf.RDFSSubPropertyOf), rdf.Literal("p")),
	}
	for i, tr := range bad {
		if err := b.Add(tr); err == nil {
			t.Errorf("triple %d should be rejected: %v", i, tr)
		}
	}
}

func TestNormalizerApplied(t *testing.T) {
	lits := NewLiterals()
	norm := func(t rdf.Term) string { return strings.ToLower(t.Value) }
	b := NewBuilder("t", lits, norm)
	if err := b.Add(rdf.T(ex("a"), ex("name"), rdf.Literal("ANN"))); err != nil {
		t.Fatal(err)
	}
	o := b.Build()
	if _, ok := o.Literals().Lookup("ann"); !ok {
		t.Fatal("normalizer not applied at intern time")
	}
}

func TestSharedLiteralTableAcrossOntologies(t *testing.T) {
	lits := NewLiterals()
	b1 := NewBuilder("o1", lits, nil)
	b2 := NewBuilder("o2", lits, nil)
	b1.Add(rdf.T(ex("a"), ex("name"), rdf.Literal("Ann")))
	b2.Add(rdf.T(ex("x"), ex("label"), rdf.Literal("Ann")))
	o1, o2 := b1.Build(), b2.Build()
	l1, _ := o1.Literals().Lookup("Ann")
	l2, _ := o2.Literals().Lookup("Ann")
	if l1 != l2 {
		t.Fatal("shared literal has different IDs across ontologies")
	}
	if !o1.HasLiteral(l1) || !o2.HasLiteral(l1) {
		t.Fatal("HasLiteral should be true in both ontologies")
	}
}

// TestLiteralInternedAfterBuild: the other ontology of an alignment interns
// literals into the shared table after this one is built. Such a literal
// lies past this ontology's literal CSR and must read as absent.
func TestLiteralInternedAfterBuild(t *testing.T) {
	lits := NewLiterals()
	b1 := NewBuilder("o1", lits, nil)
	b1.Add(rdf.T(ex("a"), ex("name"), rdf.Literal("Ann")))
	o1 := b1.Build()
	b2 := NewBuilder("o2", lits, nil)
	b2.Add(rdf.T(ex("x"), ex("label"), rdf.Literal("Bob")))
	b2.Add(rdf.T(ex("y"), ex("label"), rdf.Literal("Bob")))
	o2 := b2.Build()
	ann, _ := lits.Lookup("Ann")
	bob, _ := lits.Lookup("Bob")
	later := lits.Intern("Cy") // after both builds
	for _, l := range []Lit{bob, later} {
		if o1.HasLiteral(l) || len(o1.LitEdges(l)) != 0 {
			t.Errorf("o1 reports literal %q, interned after its build", lits.Value(l))
		}
	}
	// Inside o2's CSR but without edges there.
	if o2.HasLiteral(ann) || len(o2.LitEdges(ann)) != 0 {
		t.Error("o2 reports literal \"Ann\", which only o1 uses")
	}
	if !o2.HasLiteral(bob) || len(o2.LitEdges(bob)) != 2 {
		t.Errorf("o2 literal \"Bob\": HasLiteral %v, %d edges, want true and 2",
			o2.HasLiteral(bob), len(o2.LitEdges(bob)))
	}
	if o2.HasLiteral(later) || len(o2.LitEdges(later)) != 0 {
		t.Error("o2 reports a literal interned after its build")
	}
}

func TestStats(t *testing.T) {
	o := mustBuild(t, `
<http://ex.org/Elvis> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex.org/singer> .
<http://ex.org/Elvis> <http://ex.org/name> "Elvis" .
`)
	s := o.Stats()
	if s.Instances != 1 || s.Classes != 1 || s.Relations != 1 || s.Facts != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if !strings.Contains(s.String(), "1 instances") {
		t.Fatalf("stats string: %s", s.String())
	}
}

func TestLoadFromParser(t *testing.T) {
	doc := `<http://ex.org/a> <http://ex.org/p> <http://ex.org/b> .`
	b := NewBuilder("t", nil, nil)
	if err := b.Load(rdf.NewNTriplesReader(strings.NewReader(doc))); err != nil {
		t.Fatal(err)
	}
	if b.Build().NumFacts() != 1 {
		t.Fatal("Load dropped the fact")
	}
}

func TestEmptyOntology(t *testing.T) {
	o := NewBuilder("empty", nil, nil).Build()
	if o.NumFacts() != 0 || o.NumInstances() != 0 || o.NumClasses() != 0 {
		t.Fatalf("empty ontology has content: %+v", o.Stats())
	}
}

func TestRelationsListAndNames(t *testing.T) {
	o := mustBuild(t, `<http://ex.org/a> <http://ex.org/p> <http://ex.org/b> .`)
	rels := o.Relations()
	if len(rels) != 2 {
		t.Fatalf("relations = %d, want 2 (p and p⁻¹)", len(rels))
	}
	p, ok := o.LookupRelation("http://ex.org/p")
	if !ok {
		t.Fatal("relation lookup failed")
	}
	if !strings.HasSuffix(o.RelationName(p.Inverse()), "⁻¹") {
		t.Fatalf("inverse name = %q", o.RelationName(p.Inverse()))
	}
}

func TestInstancesSorted(t *testing.T) {
	o := mustBuild(t, `
<http://ex.org/c> <http://ex.org/p> <http://ex.org/a> .
<http://ex.org/b> <http://ex.org/p> <http://ex.org/a> .
`)
	insts := o.Instances()
	if !sort.SliceIsSorted(insts, func(i, j int) bool { return insts[i] < insts[j] }) {
		t.Fatal("Instances should be in ID order")
	}
}
