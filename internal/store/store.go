// Package store implements the indexed in-memory ontology representation
// that the PARIS algorithm runs on: dictionary-interned resources, relations,
// and literals; materialized inverse statements; the deductive closure of
// rdfs:subClassOf and rdfs:subPropertyOf; and per-relation functionality
// (Section 3 and Section 5.2 of the paper).
package store

import (
	"fmt"
	"strings"

	"repro/internal/rdf"
)

// Resource identifies an interned resource (instance or class) within one
// ontology. Resources of different ontologies live in different ID spaces.
type Resource uint32

// Relation identifies an interned relation within one ontology. Relations are
// allocated in pairs: a base relation r gets an even ID and its inverse r⁻¹
// gets the next odd ID, so Inverse is a single XOR.
type Relation uint32

// Inverse returns the inverse relation r⁻¹ (an involution).
func (r Relation) Inverse() Relation { return r ^ 1 }

// IsInverse reports whether r is the materialized inverse of a base relation.
func (r Relation) IsInverse() bool { return r&1 == 1 }

// Base returns the base (even) relation of the pair r belongs to.
func (r Relation) Base() Relation { return r &^ 1 }

// Lit identifies an interned literal in a literal table shared between the
// two ontologies being aligned. Sharing the table makes the paper's default
// literal-equality function ("identical literals are equal with probability
// 1, all others 0") a simple ID comparison.
type Lit uint32

// Node is either a Resource or a Lit; the top bit discriminates.
type Node uint32

const litFlag Node = 1 << 31

// ResNode wraps a resource as a Node.
func ResNode(r Resource) Node { return Node(r) }

// LitNode wraps a literal as a Node.
func LitNode(l Lit) Node { return Node(l) | litFlag }

// IsLit reports whether the node is a literal.
func (n Node) IsLit() bool { return n&litFlag != 0 }

// Res returns the resource a non-literal node denotes.
func (n Node) Res() Resource { return Resource(n) }

// Lit returns the literal a literal node denotes.
func (n Node) Lit() Lit { return Lit(n &^ litFlag) }

// Edge is one statement hanging off a first argument: relation and second
// argument. The adjacency list of a resource x contains an Edge (r, y) for
// every statement r(x, y), including materialized inverse statements, so
// iterating Edges(x) enumerates both the facts about x and the facts
// pointing at x — exactly the traversal the optimization in Section 5.2
// requires.
type Edge struct {
	Rel Relation
	To  Node
}

// Stmt is a statement r(S, O) listed under relation r. For base relations S
// is always a resource; for inverse relations S may be a literal.
type Stmt struct {
	S Node
	O Node
}

// Normalizer maps a literal term to the canonical string under which it is
// interned. Two literals are equal (probability 1) iff their normalized
// strings are identical. This implements Section 5.3's clamped literal
// equality.
type Normalizer func(rdf.Term) string

// IdentityNorm is the paper's default: drop datatype and language decoration
// and compare lexical forms verbatim.
func IdentityNorm(t rdf.Term) string { return t.Value }

// Literals is a literal dictionary. A single Literals value must be shared by
// the two ontologies of an alignment so literal IDs are comparable.
// The zero value is not ready; use NewLiterals.
type Literals struct {
	byKey map[string]Lit
	vals  []string
}

// NewLiterals returns an empty literal table.
func NewLiterals() *Literals {
	return &Literals{byKey: make(map[string]Lit)}
}

// Intern returns the ID for the normalized string s, allocating one if
// needed. A new string is cloned: it may be a substring of a whole parse
// block.
func (ls *Literals) Intern(s string) Lit {
	if id, ok := ls.byKey[s]; ok {
		return id
	}
	s = strings.Clone(s)
	id := Lit(len(ls.vals))
	ls.vals = append(ls.vals, s)
	ls.byKey[s] = id
	return id
}

// Lookup returns the ID for s and whether it is interned.
func (ls *Literals) Lookup(s string) (Lit, bool) {
	id, ok := ls.byKey[s]
	return id, ok
}

// Value returns the normalized string of a literal.
func (ls *Literals) Value(l Lit) string { return ls.vals[l] }

// Len returns the number of interned literals.
func (ls *Literals) Len() int { return len(ls.vals) }

// Ontology is the frozen, indexed form of one RDFS ontology, produced by
// Builder.Build. It is safe for concurrent readers; the only mutation path
// is ApplyDelta, which requires exclusive access (see delta.go).
type Ontology struct {
	name string
	lits *Literals
	norm Normalizer // retained from the builder so deltas intern identically

	resourceKeys  []string
	resourceByKey map[string]Resource

	relationNames  []string // indexed by Relation, inverses included
	relationByName map[string]Relation

	// CSR adjacency over resources: edges[edgeOff[x]:edgeOff[x+1]].
	edgeOff []uint32
	edges   []Edge

	// CSR adjacency over literal first arguments (inverse statements
	// only): litEdges[litOff[l]:litOff[l+1]]. It covers the literals of the
	// shared table when this ontology was built or last took a delta; a
	// literal interned since, by the other ontology, lies past litOff and
	// has no edges here.
	litOff   []uint32
	litEdges []Edge

	// Per-relation statement lists; inverse relations share the base list
	// and are iterated with arguments swapped.
	relStmts [][]Stmt

	fun     []float64 // global functionality per Relation (harmonic mean, Eq. 2)
	funArgs []int     // per Relation: #distinct first arguments, for delta updates

	// Schema.
	isClass     []bool
	instTypes   [][]Resource            // instance -> classes (deductively closed)
	classInsts  map[Resource][]Resource // class -> instances (deductively closed)
	classSubs   map[Resource][]Resource // class -> direct subclasses
	classSupers map[Resource][]Resource // class -> direct superclasses

	relSupers map[Relation][]Relation // transitive superproperties, for delta closure

	instances []Resource // resources that are not classes
	numFacts  int        // base statements after sub-property closure
}

// Name returns the ontology's display name.
func (o *Ontology) Name() string { return o.name }

// Literals returns the shared literal table.
func (o *Ontology) Literals() *Literals { return o.lits }

// NumResources returns the number of interned resources (instances+classes).
func (o *Ontology) NumResources() int { return len(o.resourceKeys) }

// Normalize maps a literal term to the canonical string under which this
// ontology interns it, applying the normalizer the ontology was built with
// (IdentityNorm when none was configured).
func (o *Ontology) Normalize(t rdf.Term) string {
	if o.norm == nil {
		return IdentityNorm(t)
	}
	return o.norm(t)
}

// NumInstances returns the number of non-class resources.
func (o *Ontology) NumInstances() int { return len(o.instances) }

// NumClasses returns the number of class resources.
func (o *Ontology) NumClasses() int { return len(o.resourceKeys) - len(o.instances) }

// NumBaseRelations returns the number of declared relations (inverses not
// counted).
func (o *Ontology) NumBaseRelations() int { return len(o.relationNames) / 2 }

// NumRelations returns the number of relations including inverses.
func (o *Ontology) NumRelations() int { return len(o.relationNames) }

// NumFacts returns the number of base statements (sub-property closure
// included, rdf:type and schema statements excluded).
func (o *Ontology) NumFacts() int { return o.numFacts }

// Instances returns the instance resources. Callers must not mutate it.
func (o *Ontology) Instances() []Resource { return o.instances }

// IsClass reports whether the resource is a class.
func (o *Ontology) IsClass(x Resource) bool { return o.isClass[x] }

// ResourceKey returns the dictionary key (IRI or blank label) of a resource.
func (o *Ontology) ResourceKey(x Resource) string { return o.resourceKeys[x] }

// LookupResource returns the resource interned under key.
func (o *Ontology) LookupResource(key string) (Resource, bool) {
	r, ok := o.resourceByKey[key]
	return r, ok
}

// RelationName returns the display name of a relation; inverse relations
// carry a trailing superscript marker.
func (o *Ontology) RelationName(r Relation) string { return o.relationNames[r] }

// LookupRelation returns the relation interned under the given IRI.
func (o *Ontology) LookupRelation(iri string) (Relation, bool) {
	r, ok := o.relationByName[iri]
	return r, ok
}

// Relations returns all relation IDs including inverses.
func (o *Ontology) Relations() []Relation {
	out := make([]Relation, len(o.relationNames))
	for i := range out {
		out[i] = Relation(i)
	}
	return out
}

// Edges returns all statements with first argument x (base and inverse).
// Callers must not mutate the returned slice.
func (o *Ontology) Edges(x Resource) []Edge {
	return o.edges[o.edgeOff[x]:o.edgeOff[x+1]]
}

// LitEdges returns all statements with literal first argument l, i.e. the
// inverse statements r⁻¹(l, x) of facts r(x, l). Callers must not mutate it.
func (o *Ontology) LitEdges(l Lit) []Edge {
	if int(l)+1 >= len(o.litOff) {
		return nil
	}
	return o.litEdges[o.litOff[l]:o.litOff[l+1]]
}

// HasLiteral reports whether the literal occurs in this ontology. A literal
// that the other ontology interned after this one was built does not.
func (o *Ontology) HasLiteral(l Lit) bool {
	return int(l)+1 < len(o.litOff) && o.litOff[l+1] > o.litOff[l]
}

// NumStatements returns the number of statements of relation r.
func (o *Ontology) NumStatements(r Relation) int {
	return len(o.relStmts[r.Base()])
}

// EachStatement calls fn for every statement r(s, obj), handling the
// argument swap for inverse relations. Iteration stops early if fn returns
// false.
func (o *Ontology) EachStatement(r Relation, fn func(s, obj Node) bool) {
	stmts := o.relStmts[r.Base()]
	if r.IsInverse() {
		for _, st := range stmts {
			if !fn(st.O, st.S) {
				return
			}
		}
		return
	}
	for _, st := range stmts {
		if !fn(st.S, st.O) {
			return
		}
	}
}

// Fun returns the global functionality of r (Equation 2, harmonic mean of
// local functionalities). Relations with no statements have functionality 0.
func (o *Ontology) Fun(r Relation) float64 { return o.fun[r] }

// InvFun returns the global inverse functionality fun⁻¹(r) = fun(r⁻¹).
func (o *Ontology) InvFun(r Relation) float64 { return o.fun[r.Inverse()] }

// LocalFun returns the local functionality fun(r, x) = 1 / #y : r(x, y)
// (Equation 1). It returns 0 when x has no r-statements.
func (o *Ontology) LocalFun(r Relation, x Resource) float64 {
	n := 0
	for _, e := range o.Edges(x) {
		if e.Rel == r {
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return 1 / float64(n)
}

// ClassesOf returns the classes of instance x, deductively closed over
// rdfs:subClassOf. Callers must not mutate the returned slice.
func (o *Ontology) ClassesOf(x Resource) []Resource { return o.instTypes[x] }

// InstancesOf returns the instances of class c, deductively closed. Callers
// must not mutate the returned slice.
func (o *Ontology) InstancesOf(c Resource) []Resource { return o.classInsts[c] }

// Classes returns all class resources in ID order.
func (o *Ontology) Classes() []Resource {
	out := make([]Resource, 0, o.NumClasses())
	for i, c := range o.isClass {
		if c {
			out = append(out, Resource(i))
		}
	}
	return out
}

// Subclasses returns the direct subclasses of c.
func (o *Ontology) Subclasses(c Resource) []Resource { return o.classSubs[c] }

// Superclasses returns the direct superclasses of c.
func (o *Ontology) Superclasses(c Resource) []Resource { return o.classSupers[c] }

// Stats summarizes an ontology in the shape of Table 2 of the paper.
type Stats struct {
	Name      string
	Instances int
	Classes   int
	Relations int // base relations, as the paper counts them
	Facts     int
	Literals  int
}

// Stats returns summary statistics.
func (o *Ontology) Stats() Stats {
	return Stats{
		Name:      o.name,
		Instances: o.NumInstances(),
		Classes:   o.NumClasses(),
		Relations: o.NumBaseRelations(),
		Facts:     o.numFacts,
		Literals:  o.lits.Len(),
	}
}

// String renders the stats in one line.
func (s Stats) String() string {
	return fmt.Sprintf("%s: %d instances, %d classes, %d relations, %d facts",
		s.Name, s.Instances, s.Classes, s.Relations, s.Facts)
}
