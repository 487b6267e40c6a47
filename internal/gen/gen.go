// Package gen generates the synthetic evaluation corpora of this
// reproduction. The paper evaluates on OAEI-2010 person and restaurant
// datasets, on YAGO vs. DBpedia, and on YAGO vs. an IMDb ontology; none of
// those dumps are redistributable, so each generator reproduces the
// statistical shape PARIS is sensitive to — functionalities, literal overlap
// and noise, schema granularity mismatch, instance overlap — at a
// configurable scale, together with an exact gold standard. Each
// generator's Config type names the paper corpus it stands in for and the
// traits it keeps.
//
// All generators are deterministic for a fixed seed.
package gen

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/eval"
	"repro/internal/rdf"
	"repro/internal/store"
)

// Dataset is a generated pair of ontologies with gold standards.
type Dataset struct {
	Name1, Name2 string

	Triples1, Triples2 []rdf.Triple

	// Gold maps ontology-1 instance keys to ontology-2 instance keys.
	Gold *eval.Gold

	// RelGold maps ontology-1 base relation IRIs to the equivalent
	// ontology-2 relation IRI; a "⁻¹" suffix on the target marks an
	// inverted pair (r ≡ r'⁻¹).
	RelGold map[string]string

	// ClassGold maps ontology-1 class IRIs to the equivalent (or nearest
	// super) ontology-2 class IRI.
	ClassGold map[string]string
}

// Build freezes both triple sets into ontologies sharing one literal table,
// applying the given normalizer (nil means identity).
func (d *Dataset) Build(norm store.Normalizer) (*store.Ontology, *store.Ontology, error) {
	lits := store.NewLiterals()
	b1 := store.NewBuilder(d.Name1, lits, norm)
	if err := b1.AddAll(d.Triples1); err != nil {
		return nil, nil, fmt.Errorf("gen: building %s: %w", d.Name1, err)
	}
	b2 := store.NewBuilder(d.Name2, lits, norm)
	if err := b2.AddAll(d.Triples2); err != nil {
		return nil, nil, fmt.Errorf("gen: building %s: %w", d.Name2, err)
	}
	return b1.Build(), b2.Build(), nil
}

// WriteFiles serializes the dataset into dir as <name1>.nt, <name2>.nt and
// gold.tsv, exercising the same parser path a real dump would take.
func (d *Dataset) WriteFiles(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, triples []rdf.Triple) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		return rdf.WriteNTriples(f, triples)
	}
	if err := write(d.Name1+".nt", d.Triples1); err != nil {
		return err
	}
	if err := write(d.Name2+".nt", d.Triples2); err != nil {
		return err
	}
	var sb strings.Builder
	for _, p := range d.Gold.Pairs() {
		sb.WriteString(p[0])
		sb.WriteByte('\t')
		sb.WriteString(p[1])
		sb.WriteByte('\n')
	}
	return os.WriteFile(filepath.Join(dir, "gold.tsv"), []byte(sb.String()), 0o644)
}

// rng wraps math/rand with the helpers the generators share.
type rng struct{ *rand.Rand }

func newRNG(seed int64) rng {
	return rng{rand.New(rand.NewSource(seed))}
}

// pick returns a random element of the pool.
func (r rng) pick(pool []string) string {
	return pool[r.Intn(len(pool))]
}

// chance returns true with probability p.
func (r rng) chance(p float64) bool {
	return r.Float64() < p
}

// digits returns n random decimal digits.
func (r rng) digits(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('0' + r.Intn(10))
	}
	return string(b)
}

// typo perturbs one character of s (substitution), leaving very short
// strings alone.
func (r rng) typo(s string) string {
	runes := []rune(s)
	if len(runes) < 3 {
		return s
	}
	i := 1 + r.Intn(len(runes)-2)
	runes[i] = rune('a' + r.Intn(26))
	return string(runes)
}

// personName synthesizes a realistic, near-unique full name: most people
// get first+last, some a middle name, some a double-barrelled surname. The
// effective name space (~10⁵) leaves a few percent of colliding names, the
// ambiguity level large KBs exhibit.
func (r rng) personName() string {
	first := r.pick(firstNames)
	last := r.pick(lastNames)
	switch {
	case r.chance(0.55):
		return first + " " + r.pick(firstNames) + " " + last
	case r.chance(0.30):
		return first + " " + last + "-" + r.pick(lastNames)
	case r.chance(0.40):
		return first + " " + string(rune('A'+r.Intn(26))) + ". " + last
	default:
		return first + " " + last
	}
}

// reformatDate rewrites an ISO "YYYY-MM-DD" date as "DD/MM/YYYY" — the
// cross-KB format divergence that defeats the naive literal identity of
// Section 5.3 (a major real-data recall loss). Non-ISO inputs pass through.
func reformatDate(iso string) string {
	if len(iso) != 10 || iso[4] != '-' || iso[7] != '-' {
		return iso
	}
	return iso[8:10] + "/" + iso[5:7] + "/" + iso[0:4]
}

// swapWords reorders the first two words of s, a "hard" name variant that
// no character-level normalization repairs.
func swapWords(s string) string {
	parts := strings.SplitN(s, " ", 3)
	if len(parts) < 2 {
		return s
	}
	parts[0], parts[1] = parts[1], parts[0]
	return strings.Join(parts, " ")
}

// tripleSink collects triples for one ontology under a namespace.
type tripleSink struct {
	ns      string
	triples []rdf.Triple
}

func newSink(ns string) *tripleSink { return &tripleSink{ns: ns} }

// iri returns an IRI in the sink's namespace.
func (s *tripleSink) iri(local string) rdf.Term { return rdf.IRI(s.ns + local) }

// fact appends subject-relation-object with IRI object.
func (s *tripleSink) fact(subj, rel, obj string) {
	s.triples = append(s.triples, rdf.T(s.iri(subj), s.iri(rel), s.iri(obj)))
}

// lit appends subject-relation-literal.
func (s *tripleSink) lit(subj, rel, value string) {
	s.triples = append(s.triples, rdf.T(s.iri(subj), s.iri(rel), rdf.Literal(value)))
}

// litIRIRel appends a literal fact under a full (non-namespaced) relation
// IRI such as rdfs:label.
func (s *tripleSink) litIRIRel(subj, relIRI, value string) {
	s.triples = append(s.triples, rdf.T(s.iri(subj), rdf.IRI(relIRI), rdf.Literal(value)))
}

// typed appends an rdf:type statement.
func (s *tripleSink) typed(subj, class string) {
	s.triples = append(s.triples, rdf.T(s.iri(subj), rdf.IRI(rdf.RDFType), s.iri(class)))
}

// subclass appends an rdfs:subClassOf statement.
func (s *tripleSink) subclass(sub, super string) {
	s.triples = append(s.triples, rdf.T(s.iri(sub), rdf.IRI(rdf.RDFSSubClassOf), s.iri(super)))
}

// key returns the dictionary key of a namespaced IRI, for gold standards.
func (s *tripleSink) key(local string) string { return s.iri(local).Key() }
