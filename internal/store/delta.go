package store

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/rdf"
)

// This file implements delta ingestion: extending a frozen ontology in place
// with additional triples, the store-side half of incremental re-alignment.
// The expensive frozen indexes are updated, not rebuilt: per-relation
// functionalities (Section 3, Equations 1-2) are maintained from the retained
// distinct-argument counters, the rdfs:subPropertyOf closure is replayed from
// the retained super-property map, and only the CSR adjacency arrays are
// re-packed (one linear copy, no sorting, no re-parsing).

// ErrSchemaDelta is returned by ApplyDelta for rdfs:subClassOf or
// rdfs:subPropertyOf triples: schema additions change the deductive closure
// of already-ingested statements, which only a full rebuild realizes.
var ErrSchemaDelta = errors.New("store: schema triples (rdfs:subClassOf, rdfs:subPropertyOf) require a full rebuild, not a delta")

// ApplyDelta extends the ontology in place with additional triples and
// returns the number of statements actually added (delta facts after
// sub-property closure plus rdf:type edges; duplicates of existing
// statements are skipped). Literals are normalized and interned exactly as
// during the original build, so the shared-literal-table invariant is
// preserved.
//
// A shape error (literal subject, non-IRI predicate, schema triple) is
// reported before anything is mutated, so a failed ApplyDelta leaves the
// ontology unchanged.
//
// ApplyDelta requires exclusive access: no other goroutine may read the
// ontology while it runs. Aligners created before the delta hold stale
// functionality slices; create a fresh one (core.NewWarm) afterwards.
func (o *Ontology) ApplyDelta(triples []rdf.Triple) (int, error) {
	if err := validateDelta(triples); err != nil {
		return 0, err
	}
	oldN := len(o.edgeOff) - 1

	facts, typeEdges := o.stageDelta(triples, oldN)
	if len(facts) == 0 && len(typeEdges) == 0 {
		return 0, nil
	}

	// Functionality counters first: distinctness checks consult the
	// pre-delta adjacency, so they must run before any structural append.
	touched := o.bumpFunArgs(facts, oldN)

	// addFacts sizes the adjacency to every resource, those a type-only
	// delta interns included, so Edges stays in bounds.
	o.addFacts(facts)
	classesChanged := o.applyTypeEdges(typeEdges)

	for base := range touched {
		n := len(o.relStmts[base])
		o.fun[base] = float64(o.funArgs[base]) / float64(n)
		o.fun[base+1] = float64(o.funArgs[base+1]) / float64(n)
	}
	if classesChanged || len(o.resourceKeys) > oldN {
		o.instances = o.instances[:0]
		for i := range o.resourceKeys {
			if !o.isClass[Resource(i)] {
				o.instances = append(o.instances, Resource(i))
			}
		}
	}
	o.numFacts += len(facts)
	return len(facts) + len(typeEdges), nil
}

// validateDelta checks triple shapes without interning anything.
func validateDelta(triples []rdf.Triple) error {
	for _, t := range triples {
		if !t.Subject.IsResource() {
			return fmt.Errorf("store: literal subject in %v", t)
		}
		if !t.Predicate.IsIRI() {
			return fmt.Errorf("store: non-IRI predicate in %v", t)
		}
		switch t.Predicate.Value {
		case rdf.RDFSSubClassOf, rdf.RDFSSubPropertyOf:
			return fmt.Errorf("%w: %v", ErrSchemaDelta, t)
		case rdf.RDFType:
			if !t.Object.IsResource() {
				return fmt.Errorf("store: literal class in %v", t)
			}
		}
	}
	return nil
}

// stageDelta interns the delta's terms, applies the sub-property closure to
// facts, and drops duplicates (within the batch and against the ontology).
// oldN is the pre-delta resource count: subjects at or beyond it cannot have
// existing statements, so only older subjects pay the adjacency scan.
func (o *Ontology) stageDelta(triples []rdf.Triple, oldN int) ([]fact, []typeEdge) {
	norm := o.norm
	if norm == nil {
		norm = IdentityNorm
	}
	var facts []fact
	var typeEdges []typeEdge
	seenFact := make(map[fact]struct{})
	addFact := func(f fact) {
		if _, dup := seenFact[f]; dup {
			return
		}
		seenFact[f] = struct{}{}
		if int(f.s) < oldN && o.hasEdge(f.s, Edge{Rel: f.r, To: f.o}) {
			return
		}
		facts = append(facts, f)
	}
	for _, t := range triples {
		if t.Predicate.Value == rdf.RDFType {
			inst := o.internResource(t.Subject.Key())
			class := o.internResource(t.Object.Key())
			if !o.hasType(inst, class) {
				typeEdges = append(typeEdges, typeEdge{inst, class})
			}
			continue
		}
		rel := o.internRelation(t.Predicate.Value)
		var obj Node
		if t.Object.IsLiteral() {
			obj = LitNode(o.lits.Intern(norm(t.Object)))
		} else {
			obj = ResNode(o.internResource(t.Object.Key()))
		}
		f := fact{s: o.internResource(t.Subject.Key()), r: rel, o: obj}
		addFact(f)
		for _, super := range o.relSupers[rel] {
			if super != rel {
				addFact(fact{s: f.s, r: super, o: obj})
			}
		}
	}
	return facts, typeEdges
}

// bumpFunArgs updates the distinct first-argument counters for the staged
// facts against the pre-delta adjacency and returns the touched base
// relations. A node is a new first argument of r when it has no r-statement
// in the old ontology and no earlier statement within this batch.
func (o *Ontology) bumpFunArgs(facts []fact, oldN int) map[Relation]struct{} {
	touched := make(map[Relation]struct{})
	type argKey struct {
		r Relation
		n Node
	}
	seen := make(map[argKey]struct{}, 2*len(facts))
	first := func(r Relation, n Node) bool {
		k := argKey{r, n}
		if _, ok := seen[k]; ok {
			return false
		}
		seen[k] = struct{}{}
		return !o.hadStatement(r, n, oldN)
	}
	for _, f := range facts {
		base := f.r.Base()
		touched[base] = struct{}{}
		if first(base, ResNode(f.s)) {
			o.funArgs[base]++
		}
		if first(base.Inverse(), f.o) {
			o.funArgs[base.Inverse()]++
		}
	}
	return touched
}

// hadStatement reports whether first argument n had an r-statement before the
// delta. For base relations n is the subject; for inverse relations n is the
// object of the base direction (possibly a literal).
func (o *Ontology) hadStatement(r Relation, n Node, oldN int) bool {
	if n.IsLit() {
		for _, e := range o.LitEdges(n.Lit()) {
			if e.Rel == r {
				return true
			}
		}
		return false
	}
	x := n.Res()
	if int(x) >= oldN {
		return false
	}
	for _, e := range o.edges[o.edgeOff[x]:o.edgeOff[x+1]] {
		if e.Rel == r {
			return true
		}
	}
	return false
}

// hasEdge reports whether the pre-delta adjacency of x contains e.
func (o *Ontology) hasEdge(x Resource, e Edge) bool {
	for _, have := range o.edges[o.edgeOff[x]:o.edgeOff[x+1]] {
		if have == e {
			return true
		}
	}
	return false
}

// hasType reports whether inst already carries class (deductively closed).
func (o *Ontology) hasType(inst, class Resource) bool {
	return slices.Contains(o.instTypes[inst], class)
}

// applyTypeEdges installs new rdf:type edges with the superclass closure of
// the frozen schema and reports whether any resource became a class.
func (o *Ontology) applyTypeEdges(typeEdges []typeEdge) bool {
	changed := false
	for _, te := range typeEdges {
		if !o.isClass[te.class] {
			o.isClass[te.class] = true
			changed = true
		}
		o.addType(te.inst, te.class)
		// Transitive superclass walk (cycle-safe BFS, like the builder).
		seen := map[Resource]bool{te.class: true}
		queue := append([]Resource(nil), o.classSupers[te.class]...)
		for len(queue) > 0 {
			sup := queue[0]
			queue = queue[1:]
			if seen[sup] {
				continue
			}
			seen[sup] = true
			o.addType(te.inst, sup)
			queue = append(queue, o.classSupers[sup]...)
		}
	}
	return changed
}

// addType records inst as an instance of class unless already known.
func (o *Ontology) addType(inst, class Resource) {
	if o.hasType(inst, class) {
		return
	}
	o.instTypes[inst] = append(o.instTypes[inst], class)
	o.classInsts[class] = append(o.classInsts[class], inst)
}

// internResource interns a resource key post-freeze, extending the
// per-resource tables. The CSR adjacency is extended by applyFacts.
func (o *Ontology) internResource(key string) Resource {
	if id, ok := o.resourceByKey[key]; ok {
		return id
	}
	id := Resource(len(o.resourceKeys))
	o.resourceKeys = append(o.resourceKeys, key)
	o.resourceByKey[key] = id
	o.isClass = append(o.isClass, false)
	o.instTypes = append(o.instTypes, nil)
	return id
}

// internRelation interns a base relation post-freeze, allocating the inverse
// alongside like the builder.
func (o *Ontology) internRelation(iri string) Relation {
	if id, ok := o.relationByName[iri]; ok {
		return id
	}
	id := Relation(len(o.relationNames))
	o.relationNames = append(o.relationNames, iri, iri+"⁻¹")
	o.relationByName[iri] = id
	o.relStmts = append(o.relStmts, nil, nil)
	o.fun = append(o.fun, 0, 0)
	o.funArgs = append(o.funArgs, 0, 0)
	return id
}
