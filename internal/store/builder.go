package store

import (
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
		classInsts:     make(map[Resource][]Resource),
		classSubs:      make(map[Resource][]Resource),
		classSupers:    make(map[Resource][]Resource),
	}
	o.relSupers = b.closedSuperProperties()
	facts := b.closeSubProperties(o.relSupers)
	facts = dedupFacts(facts, len(o.relationNames))
	o.numFacts = len(facts)

	b.buildSchema(o)
	o.relStmts = make([][]Stmt, len(o.relationNames))
	o.addFacts(facts)
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

// dedupFacts sorts fs by (r, s, o) in place and drops duplicates. A
// counting sort groups the facts by relation (numRels bounds the relation
// IDs); each group is then sorted as packed s<<32|o words, which order like
// (s, o).
func dedupFacts(fs []fact, numRels int) []fact {
	if len(fs) < 2 {
		return fs
	}
	start := make([]int, numRels+1)
	for _, f := range fs {
		start[f.r+1]++
	}
	for r := 1; r <= numRels; r++ {
		start[r] += start[r-1]
	}
	keys := make([]uint64, len(fs))
	next := slices.Clone(start[:numRels])
	for _, f := range fs {
		keys[next[f.r]] = uint64(f.s)<<32 | uint64(f.o)
		next[f.r]++
	}
	w := 0
	for r := 0; r < numRels; r++ {
		group := keys[start[r]:start[r+1]]
		slices.Sort(group)
		for i, k := range group {
			if i > 0 && k == group[i-1] {
				continue
			}
			fs[w] = fact{s: Resource(k >> 32), r: Relation(r), o: Node(k)}
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
	for _, e := range b.typeEdges {
		o.addType(e.inst, e.class)
		for _, sup := range closedSupers[e.class] {
			o.addType(e.inst, sup)
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

// addFacts adds facts to the adjacency and the per-relation statement
// lists: the base edge r(s, o) at s and the inverse edge r⁻¹(o, s) at o, in
// fact order after each row's existing edges. One counting pass sizes both
// CSRs, the resource one and the literal one, which then cover every
// resource of the ontology and every literal of the shared table. Nothing is
// sorted or deduplicated.
func (o *Ontology) addFacts(facts []fact) {
	resAdd := make([]uint32, len(o.resourceKeys))
	litAdd := make([]uint32, o.lits.Len())
	for _, f := range facts {
		resAdd[f.s]++
		if f.o.IsLit() {
			litAdd[f.o.Lit()]++
		} else {
			resAdd[f.o.Res()]++
		}
	}
	var resAt, litAt []uint32
	o.edgeOff, o.edges, resAt = repack(o.edgeOff, o.edges, resAdd)
	o.litOff, o.litEdges, litAt = repack(o.litOff, o.litEdges, litAdd)
	for _, f := range facts {
		o.edges[resAt[f.s]] = Edge{Rel: f.r, To: f.o}
		resAt[f.s]++
		inv := Edge{Rel: f.r.Inverse(), To: ResNode(f.s)}
		if f.o.IsLit() {
			l := f.o.Lit()
			o.litEdges[litAt[l]] = inv
			litAt[l]++
		} else {
			y := f.o.Res()
			o.edges[resAt[y]] = inv
			resAt[y]++
		}
		o.relStmts[f.r.Base()] = append(o.relStmts[f.r.Base()], Stmt{S: ResNode(f.s), O: f.o})
	}
}

// repack lays out a CSR over len(add) rows in which row x holds its edges
// from the old CSR (off/edges, which may cover fewer rows, or none) followed
// by room for add[x] more. It returns the new offsets and edges, and add
// turned into a per-row cursor at the first free slot.
func repack(off []uint32, edges []Edge, add []uint32) ([]uint32, []Edge, []uint32) {
	n := len(add)
	had := func(x int) uint32 {
		if x+1 < len(off) {
			return off[x+1] - off[x]
		}
		return 0
	}
	newOff := make([]uint32, n+1)
	for x := 0; x < n; x++ {
		newOff[x+1] = newOff[x] + had(x) + add[x]
	}
	newEdges := make([]Edge, newOff[n])
	for x := 0; x < n; x++ {
		k := had(x)
		if k > 0 {
			copy(newEdges[newOff[x]:], edges[off[x]:off[x+1]])
		}
		add[x] = newOff[x] + k
	}
	return newOff, newEdges, add
}
