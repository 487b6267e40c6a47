package store

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"repro/internal/rdf"
)

// Builder accumulates triples and freezes them into an Ontology.
// It is not safe for concurrent use.
type Builder struct {
	name string
	lits *Literals
	norm Normalizer

	resourceKeys  []string
	resourceByKey map[string]Resource

	relationNames  []string
	relationByName map[string]Relation

	facts     []fact
	typeEdges []typeEdge
	subClass  []classEdge
	subProp   []propEdge

	keyBuf []byte // scratch for resource keys, reused across Add calls

	err error
}

type fact struct {
	s Resource
	r Relation
	o Node
}

type typeEdge struct {
	inst  Resource
	class Resource
}

type classEdge struct{ sub, super Resource }

type propEdge struct{ sub, super Relation }

// NewBuilder returns a builder for an ontology named name, interning literals
// into lits (which must be shared with the other ontology of the alignment).
// A nil norm defaults to IdentityNorm.
func NewBuilder(name string, lits *Literals, norm Normalizer) *Builder {
	if lits == nil {
		lits = NewLiterals()
	}
	if norm == nil {
		norm = IdentityNorm
	}
	return &Builder{
		name:           name,
		lits:           lits,
		norm:           norm,
		resourceByKey:  make(map[string]Resource),
		relationByName: make(map[string]Relation),
	}
}

// resource interns a resource term under its Key. The key is built in a
// reused buffer and looked up without allocating; only a new resource
// allocates its key, which is then a copy independent of the term's
// backing string (often a whole parse block).
func (b *Builder) resource(t rdf.Term) Resource {
	b.keyBuf = appendKey(b.keyBuf[:0], t)
	if id, ok := b.resourceByKey[string(b.keyBuf)]; ok {
		return id
	}
	key := string(b.keyBuf)
	id := Resource(len(b.resourceKeys))
	b.resourceKeys = append(b.resourceKeys, key)
	b.resourceByKey[key] = id
	return id
}

// appendKey appends t.Key() to buf without building an intermediate string.
func appendKey(buf []byte, t rdf.Term) []byte {
	switch t.Kind {
	case rdf.KindIRI:
		buf = append(buf, '<')
		buf = append(buf, t.Value...)
		return append(buf, '>')
	case rdf.KindBlank:
		buf = append(buf, "_:"...)
		return append(buf, t.Value...)
	default:
		return append(buf, t.Key()...)
	}
}

// relation interns a base relation IRI, allocating the inverse alongside.
// A new IRI is cloned: it may be a substring of a whole parse block.
func (b *Builder) relation(iri string) Relation {
	if id, ok := b.relationByName[iri]; ok {
		return id
	}
	iri = strings.Clone(iri)
	id := Relation(len(b.relationNames))
	b.relationNames = append(b.relationNames, iri, iri+"⁻¹")
	b.relationByName[iri] = id
	return id
}

// Add ingests one triple. Schema triples (rdf:type, rdfs:subClassOf,
// rdfs:subPropertyOf) update the schema; all other triples become facts.
func (b *Builder) Add(t rdf.Triple) error {
	if !t.Subject.IsResource() {
		return fmt.Errorf("store: literal subject in %v", t)
	}
	if !t.Predicate.IsIRI() {
		return fmt.Errorf("store: non-IRI predicate in %v", t)
	}
	switch t.Predicate.Value {
	case rdf.RDFType:
		if !t.Object.IsResource() {
			return fmt.Errorf("store: literal class in %v", t)
		}
		b.typeEdges = append(b.typeEdges, typeEdge{b.resource(t.Subject), b.resource(t.Object)})
	case rdf.RDFSSubClassOf:
		if !t.Object.IsResource() {
			return fmt.Errorf("store: literal superclass in %v", t)
		}
		b.subClass = append(b.subClass, classEdge{b.resource(t.Subject), b.resource(t.Object)})
	case rdf.RDFSSubPropertyOf:
		if !t.Object.IsIRI() {
			return fmt.Errorf("store: non-IRI superproperty in %v", t)
		}
		b.subProp = append(b.subProp, propEdge{b.relation(t.Subject.Value), b.relation(t.Object.Value)})
	default:
		rel := b.relation(t.Predicate.Value)
		var obj Node
		if t.Object.IsLiteral() {
			obj = LitNode(b.lits.Intern(b.norm(t.Object)))
		} else {
			obj = ResNode(b.resource(t.Object))
		}
		b.facts = append(b.facts, fact{b.resource(t.Subject), rel, obj})
	}
	return nil
}

// AddAll ingests a batch of triples, stopping at the first error.
func (b *Builder) AddAll(ts []rdf.Triple) error {
	for _, t := range ts {
		if err := b.Add(t); err != nil {
			return err
		}
	}
	return nil
}

// tripleSource matches the Next method of the rdf parsers.
type tripleSource interface {
	Next() (rdf.Triple, error)
}

// Load drains a triple source (N-Triples or Turtle reader) into the builder.
func (b *Builder) Load(src tripleSource) error {
	for {
		t, err := src.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := b.Add(t); err != nil {
			return err
		}
	}
}

// Build freezes the accumulated triples into an immutable Ontology: it
// applies the rdfs:subPropertyOf and rdfs:subClassOf deductive closure,
// deduplicates facts, materializes inverse statements, builds the adjacency
// and per-relation indexes, and computes global functionalities.
func (b *Builder) Build() *Ontology {
	o := &Ontology{
		name:           b.name,
		lits:           b.lits,
		norm:           b.norm,
		resourceKeys:   b.resourceKeys,
		resourceByKey:  b.resourceByKey,
		relationNames:  b.relationNames,
		relationByName: b.relationByName,
		litEdges:       make(map[Lit][]Edge),
		classInsts:     make(map[Resource][]Resource),
		classSubs:      make(map[Resource][]Resource),
		classSupers:    make(map[Resource][]Resource),
	}
	o.relSupers = b.closedSuperProperties()
	facts := b.closeSubProperties(o.relSupers)
	facts = dedupFacts(facts)
	o.numFacts = len(facts)

	b.buildSchema(o)
	b.buildIndexes(o, facts)
	computeFunctionality(o)
	return o
}

// closedSuperProperties computes the transitive rdfs:subPropertyOf closure
// per relation. The result is retained on the ontology so delta facts can be
// closed the same way (see ApplyDelta) without the builder.
//
// Transitive closure per relation by BFS. Memoized DFS would cache truncated
// results under cycles; the graphs are small, so a full reachability walk per
// relation is both simple and correct.
func (b *Builder) closedSuperProperties() map[Relation][]Relation {
	if len(b.subProp) == 0 {
		return nil
	}
	supers := make(map[Relation][]Relation)
	for _, e := range b.subProp {
		supers[e.sub] = append(supers[e.sub], e.super)
	}
	closed := make(map[Relation][]Relation)
	for r := range supers {
		seen := map[Relation]bool{r: true}
		queue := append([]Relation(nil), supers[r]...)
		var all []Relation
		for len(queue) > 0 {
			s := queue[0]
			queue = queue[1:]
			if seen[s] {
				continue
			}
			seen[s] = true
			all = append(all, s)
			queue = append(queue, supers[s]...)
		}
		closed[r] = dedupRelations(all)
	}
	return closed
}

// closeSubProperties adds, for every fact r(x,y) and every (transitive)
// superproperty s of r, the fact s(x,y). The paper assumes ontologies are
// given in their deductive closure; this realizes that assumption.
func (b *Builder) closeSubProperties(closed map[Relation][]Relation) []fact {
	if len(closed) == 0 {
		return b.facts
	}
	out := b.facts
	for _, f := range b.facts {
		for _, s := range closed[f.r] {
			if s != f.r {
				out = append(out, fact{f.s, s, f.o})
			}
		}
	}
	return out
}

func dedupRelations(rs []Relation) []Relation {
	if len(rs) < 2 {
		return rs
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
	w := 1
	for i := 1; i < len(rs); i++ {
		if rs[i] != rs[i-1] {
			rs[w] = rs[i]
			w++
		}
	}
	return rs[:w]
}

func dedupFacts(fs []fact) []fact {
	if len(fs) < 2 {
		return fs
	}
	// Equal facts are identical, so an unstable sort yields one order.
	slices.SortFunc(fs, func(a, b fact) int {
		if c := cmp.Compare(a.r, b.r); c != 0 {
			return c
		}
		if c := cmp.Compare(a.s, b.s); c != 0 {
			return c
		}
		return cmp.Compare(a.o, b.o)
	})
	w := 1
	for i := 1; i < len(fs); i++ {
		if fs[i] != fs[i-1] {
			fs[w] = fs[i]
			w++
		}
	}
	return fs[:w]
}

// buildSchema computes which resources are classes, the subclass closure,
// and the instance/class maps.
func (b *Builder) buildSchema(o *Ontology) {
	n := len(o.resourceKeys)
	o.isClass = make([]bool, n)
	for _, e := range b.typeEdges {
		o.isClass[e.class] = true
	}
	for _, e := range b.subClass {
		o.isClass[e.sub] = true
		o.isClass[e.super] = true
	}
	for _, e := range b.subClass {
		o.classSubs[e.super] = append(o.classSubs[e.super], e.sub)
		o.classSupers[e.sub] = append(o.classSupers[e.sub], e.super)
	}

	// Transitive superclass closure by BFS per class (cycle-safe; see the
	// sub-property closure for why memoized DFS is not).
	closedSupers := make(map[Resource][]Resource)
	for c := range o.classSupers {
		seen := map[Resource]bool{c: true}
		queue := append([]Resource(nil), o.classSupers[c]...)
		var all []Resource
		for len(queue) > 0 {
			s := queue[0]
			queue = queue[1:]
			if seen[s] {
				continue
			}
			seen[s] = true
			all = append(all, s)
			queue = append(queue, o.classSupers[s]...)
		}
		closedSupers[c] = dedupResources(all)
	}

	o.instTypes = make([][]Resource, n)
	seenPair := make(map[uint64]bool, len(b.typeEdges)*2)
	addType := func(inst, class Resource) {
		key := uint64(inst)<<32 | uint64(class)
		if seenPair[key] {
			return
		}
		seenPair[key] = true
		o.instTypes[inst] = append(o.instTypes[inst], class)
		o.classInsts[class] = append(o.classInsts[class], inst)
	}
	for _, e := range b.typeEdges {
		addType(e.inst, e.class)
		for _, sup := range closedSupers[e.class] {
			addType(e.inst, sup)
		}
	}

	o.instances = o.instances[:0]
	for i := 0; i < n; i++ {
		if !o.isClass[Resource(i)] {
			o.instances = append(o.instances, Resource(i))
		}
	}
}

func dedupResources(rs []Resource) []Resource {
	if len(rs) < 2 {
		return rs
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
	w := 1
	for i := 1; i < len(rs); i++ {
		if rs[i] != rs[i-1] {
			rs[w] = rs[i]
			w++
		}
	}
	return rs[:w]
}

// buildIndexes materializes inverse statements and builds the CSR adjacency,
// the literal adjacency, and the per-relation statement lists.
func (b *Builder) buildIndexes(o *Ontology, facts []fact) {
	n := len(o.resourceKeys)

	// Count edges per resource: each fact contributes one edge at its
	// subject and, if the object is a resource, one inverse edge there.
	counts := make([]uint32, n+1)
	for _, f := range facts {
		counts[f.s+1]++
		if !f.o.IsLit() {
			counts[f.o.Res()+1]++
		}
	}
	for i := 1; i <= n; i++ {
		counts[i] += counts[i-1]
	}
	o.edgeOff = counts
	o.edges = make([]Edge, counts[n])
	cursor := make([]uint32, n)

	o.relStmts = make([][]Stmt, len(o.relationNames))
	for _, f := range facts {
		// Base edge at subject.
		pos := o.edgeOff[f.s] + cursor[f.s]
		o.edges[pos] = Edge{Rel: f.r, To: f.o}
		cursor[f.s]++
		// Inverse edge at object.
		if f.o.IsLit() {
			l := f.o.Lit()
			o.litEdges[l] = append(o.litEdges[l], Edge{Rel: f.r.Inverse(), To: ResNode(f.s)})
		} else {
			y := f.o.Res()
			pos := o.edgeOff[y] + cursor[y]
			o.edges[pos] = Edge{Rel: f.r.Inverse(), To: ResNode(f.s)}
			cursor[y]++
		}
		o.relStmts[f.r.Base()] = append(o.relStmts[f.r.Base()], Stmt{S: ResNode(f.s), O: f.o})
	}
}
