package store

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/rdf"
)

// fingerprint renders everything observable about an ontology in a canonical
// textual form, by key rather than interned ID, so ontologies built along
// different paths (cold rebuild vs. delta ingestion) compare structurally.
func fingerprint(o *Ontology) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "facts=%d resources=%d instances=%d classes=%d\n",
		o.NumFacts(), o.NumResources(), o.NumInstances(), o.NumClasses())

	nodeKey := func(n Node) string {
		if n.IsLit() {
			return "lit:" + o.Literals().Value(n.Lit())
		}
		return o.ResourceKey(n.Res())
	}
	var resLines []string
	for i := 0; i < o.NumResources(); i++ {
		x := Resource(i)
		var edges []string
		for _, e := range o.Edges(x) {
			edges = append(edges, o.RelationName(e.Rel)+"->"+nodeKey(e.To))
		}
		sort.Strings(edges)
		var classes []string
		for _, c := range o.ClassesOf(x) {
			classes = append(classes, o.ResourceKey(c))
		}
		sort.Strings(classes)
		resLines = append(resLines, fmt.Sprintf("%s class=%v types=[%s] edges=[%s]",
			o.ResourceKey(x), o.IsClass(x), strings.Join(classes, ","), strings.Join(edges, ",")))
	}
	sort.Strings(resLines)
	sb.WriteString(strings.Join(resLines, "\n"))
	sb.WriteString("\n")

	var litLines []string
	for i := 0; i < o.Literals().Len(); i++ {
		l := Lit(i)
		if !o.HasLiteral(l) {
			continue
		}
		var edges []string
		for _, e := range o.LitEdges(l) {
			edges = append(edges, o.RelationName(e.Rel)+"->"+nodeKey(e.To))
		}
		sort.Strings(edges)
		litLines = append(litLines, fmt.Sprintf("lit:%s edges=[%s]", o.Literals().Value(l), strings.Join(edges, ",")))
	}
	sort.Strings(litLines)
	sb.WriteString(strings.Join(litLines, "\n"))
	sb.WriteString("\n")

	var funLines []string
	for _, r := range o.Relations() {
		funLines = append(funLines, fmt.Sprintf("%s n=%d fun=%.9f",
			o.RelationName(r), o.NumStatements(r), o.Fun(r)))
	}
	sort.Strings(funLines)
	sb.WriteString(strings.Join(funLines, "\n"))
	return sb.String()
}

func parseNT(t *testing.T, doc string) []rdf.Triple {
	t.Helper()
	triples, err := rdf.ParseNTriples(doc)
	if err != nil {
		t.Fatal(err)
	}
	return triples
}

const deltaBaseDoc = `<http://ex.org/e1> <http://ex.org/name> "elvis" .
<http://ex.org/e1> <http://ex.org/bornIn> <http://ex.org/tupelo> .
<http://ex.org/e1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex.org/Singer> .
<http://ex.org/Singer> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://ex.org/Person> .
<http://ex.org/bornIn> <http://www.w3.org/2000/01/rdf-schema#subPropertyOf> <http://ex.org/locatedIn> .
<http://ex.org/e2> <http://ex.org/name> "priscilla" .
<http://ex.org/tupelo> <http://ex.org/name> "tupelo" .
`

const deltaAddDoc = `<http://ex.org/e3> <http://ex.org/name> "lisa" .
<http://ex.org/e3> <http://ex.org/bornIn> <http://ex.org/memphis> .
<http://ex.org/e3> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex.org/Singer> .
<http://ex.org/memphis> <http://ex.org/name> "memphis" .
<http://ex.org/e1> <http://ex.org/marriedTo> <http://ex.org/e2> .
<http://ex.org/e1> <http://ex.org/name> "elvis" .
`

// TestApplyDeltaEquivalentToRebuild is the core delta-ingestion contract:
// base + ApplyDelta must be observationally identical to a cold build on the
// merged triple set — adjacency, literal adjacency, statement lists, schema,
// functionalities. The delta's new literals ("lisa", "memphis") lie past the
// base's literal CSR, so the repack must grow it.
func TestApplyDeltaEquivalentToRebuild(t *testing.T) {
	base := parseNT(t, deltaBaseDoc)
	add := parseNT(t, deltaAddDoc)

	b := NewBuilder("kb", NewLiterals(), nil)
	if err := b.AddAll(base); err != nil {
		t.Fatal(err)
	}
	incr := b.Build()
	added, err := incr.ApplyDelta(add)
	if err != nil {
		t.Fatal(err)
	}
	// 5 non-duplicate delta statements: 4 new facts + the closure fact
	// locatedIn(e3, memphis) + 1 type edge - 1 duplicate name fact = 6.
	if added != 6 {
		t.Errorf("added = %d, want 6", added)
	}

	cold := NewBuilder("kb", NewLiterals(), nil)
	if err := cold.AddAll(append(append([]rdf.Triple(nil), base...), add...)); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(cold.Build())
	if got := fingerprint(incr); got != want {
		t.Errorf("delta-built ontology differs from cold rebuild:\n--- delta\n%s\n--- cold\n%s", got, want)
	}
}

// TestApplyDeltaFunctionalityIncremental checks the incrementally maintained
// fun(r) against a full recomputation from the statement lists.
func TestApplyDeltaFunctionalityIncremental(t *testing.T) {
	b := NewBuilder("kb", NewLiterals(), nil)
	if err := b.AddAll(parseNT(t, deltaBaseDoc)); err != nil {
		t.Fatal(err)
	}
	o := b.Build()
	if _, err := o.ApplyDelta(parseNT(t, deltaAddDoc)); err != nil {
		t.Fatal(err)
	}
	recomputed := o.FunctionalityWith(FunHarmonicMean)
	for _, r := range o.Relations() {
		if math.Abs(o.Fun(r)-recomputed[r]) > 1e-12 {
			t.Errorf("fun(%s) = %g incrementally, %g recomputed",
				o.RelationName(r), o.Fun(r), recomputed[r])
		}
	}
}

// TestApplyDeltaIdempotent re-applies the same delta; everything is a
// duplicate, so nothing may change.
func TestApplyDeltaIdempotent(t *testing.T) {
	b := NewBuilder("kb", NewLiterals(), nil)
	if err := b.AddAll(parseNT(t, deltaBaseDoc)); err != nil {
		t.Fatal(err)
	}
	o := b.Build()
	add := parseNT(t, deltaAddDoc)
	if _, err := o.ApplyDelta(add); err != nil {
		t.Fatal(err)
	}
	before := fingerprint(o)
	added, err := o.ApplyDelta(add)
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 {
		t.Errorf("re-applying the delta added %d statements, want 0", added)
	}
	if got := fingerprint(o); got != before {
		t.Error("re-applying the delta changed the ontology")
	}
}

// TestApplyDeltaRejectsSchema: schema triples fail with ErrSchemaDelta and
// leave the ontology untouched.
func TestApplyDeltaRejectsSchema(t *testing.T) {
	for _, doc := range []string{
		`<http://ex.org/A> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://ex.org/B> .`,
		`<http://ex.org/p> <http://www.w3.org/2000/01/rdf-schema#subPropertyOf> <http://ex.org/q> .`,
	} {
		b := NewBuilder("kb", NewLiterals(), nil)
		if err := b.AddAll(parseNT(t, deltaBaseDoc)); err != nil {
			t.Fatal(err)
		}
		o := b.Build()
		before := fingerprint(o)
		if _, err := o.ApplyDelta(parseNT(t, doc)); !errors.Is(err, ErrSchemaDelta) {
			t.Errorf("ApplyDelta(%s) err = %v, want ErrSchemaDelta", doc, err)
		}
		if got := fingerprint(o); got != before {
			t.Error("failed delta mutated the ontology")
		}
	}
}

// TestApplyDeltaTypeOnly: a delta of only rdf:type triples must keep the
// adjacency bounds intact for the new resources and apply the subclass
// closure of the frozen schema.
func TestApplyDeltaTypeOnly(t *testing.T) {
	b := NewBuilder("kb", NewLiterals(), nil)
	if err := b.AddAll(parseNT(t, deltaBaseDoc)); err != nil {
		t.Fatal(err)
	}
	o := b.Build()
	add := parseNT(t, `<http://ex.org/e9> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex.org/Singer> .`)
	if _, err := o.ApplyDelta(add); err != nil {
		t.Fatal(err)
	}
	x, ok := o.LookupResource("<http://ex.org/e9>")
	if !ok {
		t.Fatal("e9 not interned")
	}
	if got := o.Edges(x); len(got) != 0 {
		t.Errorf("typed-only resource has %d edges, want 0", len(got))
	}
	var classes []string
	for _, c := range o.ClassesOf(x) {
		classes = append(classes, o.ResourceKey(c))
	}
	sort.Strings(classes)
	want := []string{"<http://ex.org/Person>", "<http://ex.org/Singer>"}
	if fmt.Sprint(classes) != fmt.Sprint(want) {
		t.Errorf("ClassesOf(e9) = %v, want %v (subclass closure)", classes, want)
	}
}
