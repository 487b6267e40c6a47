package query

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/store"
)

// invSuffix is the marker store.RelationName appends to inverse relations;
// snapshot sub-relation entries use the same convention, and query
// predicates may carry it to query a relation in the inverse direction.
const invSuffix = "⁻¹"

// rdfTypeIRI is the predicate the 'a' keyword and the per-KB pseudo type
// tables are registered under.
const rdfTypeIRI = rdf.RDFType

// Default thresholds applied by Build when Options leaves them zero.
const (
	// DefaultMinInstanceP is the minimum sameAs assignment probability for
	// two instances to share an equivalence class.
	DefaultMinInstanceP = 0.5
	// DefaultMinScoreP is the minimum sub-relation / subclass score for a
	// snapshot entry to participate in predicate and class expansion.
	DefaultMinScoreP = 0.1
)

// node identifies a value in the union KB: either a sameAs equivalence
// class of resources (cluster) or a literal from the shared literal table.
// The top bit discriminates, mirroring store.Node.
type node uint32

const litNode node = 1 << 31

// noNode is the sentinel for an unbound row slot.
const noNode = ^node(0)

func (n node) isLit() bool    { return n != noNode && n&litNode != 0 }
func (n node) lit() store.Lit { return store.Lit(n &^ litNode) }

// stmt is one statement of a union-KB relation table, both sides already
// mapped to nodes.
type stmt struct{ s, o node }

// hashJoinMaxStmts bounds the tables that get a pre-sized hash index: the
// planner builds the index once per table (shared by every cached plan) so
// repeated bound lookups are O(1) instead of a binary search.
const hashJoinMaxStmts = 1 << 14

// relTab is one relation's statements under two sort orders, the
// multi-index layout the executor's access paths run on.
type relTab struct {
	label string // "<kb>:<relation>" for spans and debugging
	byS   []stmt // sorted by (s, o)
	byO   []stmt // sorted by (o, s)

	hashOnce sync.Once
	hashS    map[node][]stmt // s -> contiguous byS segment
	hashO    map[node][]stmt // o -> contiguous byO segment
}

func newRelTab(label string, st []stmt) *relTab {
	t := &relTab{label: label, byS: st}
	sort.Slice(t.byS, func(i, j int) bool {
		a, b := t.byS[i], t.byS[j]
		if a.s != b.s {
			return a.s < b.s
		}
		return a.o < b.o
	})
	t.byO = append([]stmt(nil), t.byS...)
	sort.Slice(t.byO, func(i, j int) bool {
		a, b := t.byO[i], t.byO[j]
		if a.o != b.o {
			return a.o < b.o
		}
		return a.s < b.s
	})
	return t
}

func (t *relTab) size() int { return len(t.byS) }

// canHash reports whether the table is small enough for hash indexes.
func (t *relTab) canHash() bool { return len(t.byS) <= hashJoinMaxStmts }

// buildHash builds both hash indexes, pre-sized to the exact distinct-key
// counts (one pass over the sorted orders). Safe for concurrent callers;
// the work happens once per table.
func (t *relTab) buildHash() {
	t.hashOnce.Do(func() {
		t.hashS = segment(t.byS, func(st stmt) node { return st.s })
		t.hashO = segment(t.byO, func(st stmt) node { return st.o })
	})
}

// segment slices a key-sorted statement list into per-key subslices.
func segment(sorted []stmt, key func(stmt) node) map[node][]stmt {
	distinct := 0
	for i := range sorted {
		if i == 0 || key(sorted[i]) != key(sorted[i-1]) {
			distinct++
		}
	}
	m := make(map[node][]stmt, distinct)
	start := 0
	for i := 1; i <= len(sorted); i++ {
		if i == len(sorted) || key(sorted[i]) != key(sorted[start]) {
			m[key(sorted[start])] = sorted[start:i:i]
			start = i
		}
	}
	return m
}

// sIndex returns the subject hash index, building it if needed.
func (t *relTab) sIndex() map[node][]stmt {
	t.buildHash()
	return t.hashS
}

// oIndex returns the object hash index, building it if needed.
func (t *relTab) oIndex() map[node][]stmt {
	t.buildHash()
	return t.hashO
}

// scanS returns the byS segment with subject v by binary search.
func (t *relTab) scanS(v node) []stmt {
	lo := sort.Search(len(t.byS), func(i int) bool { return t.byS[i].s >= v })
	hi := lo
	for hi < len(t.byS) && t.byS[hi].s == v {
		hi++
	}
	return t.byS[lo:hi]
}

// scanO returns the byO segment with object v by binary search.
func (t *relTab) scanO(v node) []stmt {
	lo := sort.Search(len(t.byO), func(i int) bool { return t.byO[i].o >= v })
	hi := lo
	for hi < len(t.byO) && t.byO[hi].o == v {
		hi++
	}
	return t.byO[lo:hi]
}

// relRef is one resolved table a query predicate expands to. inv means the
// pattern's subject matches the table's object side and vice versa (the
// predicate or the sub-relation entry was an inverse).
type relRef struct {
	tab *relTab
	inv bool
}

// Value is one binding of a result row: a sameAs equivalence class
// rendered as its member resource keys from each KB, or a literal.
// The key slices are shared with the engine and must not be mutated.
type Value struct {
	KB1     []string `json:"kb1,omitempty"`
	KB2     []string `json:"kb2,omitempty"`
	Literal *string  `json:"literal,omitempty"`
}

// String renders the value canonically (used by the differential tests).
func (v Value) String() string {
	if v.Literal != nil {
		return quoteLiteral(*v.Literal)
	}
	return "{" + strings.Join(v.KB1, ",") + "|" + strings.Join(v.KB2, ",") + "}"
}

// clusterEntry lists a cluster's member resource keys per source KB.
type clusterEntry struct {
	keys1, keys2 []string
}

// Options configures Build. Zero fields take the package defaults.
type Options struct {
	// MinInstanceP is the minimum sameAs probability for an instance
	// assignment to merge two resources into one equivalence class.
	MinInstanceP float64
	// MinScoreP is the minimum score for sub-relation and subclass
	// entries to participate in expansion.
	MinScoreP float64
}

// KB is the frozen union of two aligned ontologies: resources folded into
// sameAs equivalence classes, every relation's statements re-indexed over
// those classes, and the snapshot's sub-relation and subclass tables
// compiled into expansion maps. It deep-copies everything it needs from
// the ontologies at Build time, so it stays safe for lock-free concurrent
// queries even while the source ontologies are extended by deltas.
type KB struct {
	kb1, kb2 string

	clusters     []clusterEntry
	clusterByKey map[string][]node // resource dictionary key -> cluster nodes

	litVals  []string
	litByKey map[string]store.Lit
	norm1    store.Normalizer
	norm2    store.Normalizer

	rels     map[string][]relRef // base predicate IRI -> expanded tables
	typeSubs map[string][]node   // super-class key -> cross-KB subclass clusters

	numStmts int

	planCalls atomic.Uint64 // plans built by newPlan, cached or not
}

// KB1 returns the first ontology's display name.
func (kb *KB) KB1() string { return kb.kb1 }

// KB2 returns the second ontology's display name.
func (kb *KB) KB2() string { return kb.kb2 }

// NumClusters returns the number of sameAs equivalence classes (including
// singletons).
func (kb *KB) NumClusters() int { return len(kb.clusters) }

// NumStatements returns the total statement count across all union tables.
func (kb *KB) NumStatements() int { return kb.numStmts }

// Build constructs the union KB from two ontologies sharing one literal
// table and the alignment snapshot between them. A nil snapshot yields the
// disjoint union (no sameAs merging, no expansion). The ontologies are
// only read during Build; the returned KB holds no reference to them.
func Build(o1, o2 *store.Ontology, snap *core.ResultSnapshot, opts Options) (*KB, error) {
	if o1 == nil || o2 == nil {
		return nil, fmt.Errorf("query: Build requires two ontologies")
	}
	if o1.Literals() != o2.Literals() {
		return nil, fmt.Errorf("query: ontologies %q and %q do not share a literal table", o1.Name(), o2.Name())
	}
	minInst := opts.MinInstanceP
	if minInst == 0 {
		minInst = DefaultMinInstanceP
	}
	minScore := opts.MinScoreP
	if minScore == 0 {
		minScore = DefaultMinScoreP
	}

	n1, n2 := o1.NumResources(), o2.NumResources()
	lits := o1.Literals()
	if n1+n2 >= 1<<31 || lits.Len() >= 1<<31-1 {
		return nil, fmt.Errorf("query: KB pair too large for the union node space")
	}

	// Assign cluster IDs: snapshot instance assignments first (the maximal
	// assignment maps each O1 instance to at most one O2 instance, but
	// several O1 instances may share an O2 target — they all join its
	// cluster), then every remaining resource gets a singleton cluster in
	// ID order. Classes are never merged; the subclass tables relate them.
	ent1 := make([]node, n1)
	ent2 := make([]node, n2)
	for i := range ent1 {
		ent1[i] = noNode
	}
	for i := range ent2 {
		ent2[i] = noNode
	}
	next := node(0)
	if snap != nil {
		for _, a := range snap.Instances {
			if a.P < minInst {
				continue
			}
			r1, ok1 := o1.LookupResource(a.Key1)
			r2, ok2 := o2.LookupResource(a.Key2)
			if !ok1 || !ok2 || o1.IsClass(r1) || o2.IsClass(r2) {
				continue
			}
			if ent1[r1] != noNode {
				continue
			}
			if ent2[r2] == noNode {
				ent2[r2] = next
				next++
			}
			ent1[r1] = ent2[r2]
		}
	}
	for r := 0; r < n1; r++ {
		if ent1[r] == noNode {
			ent1[r] = next
			next++
		}
	}
	for r := 0; r < n2; r++ {
		if ent2[r] == noNode {
			ent2[r] = next
			next++
		}
	}

	kb := &KB{
		kb1:          o1.Name(),
		kb2:          o2.Name(),
		clusters:     make([]clusterEntry, next),
		clusterByKey: make(map[string][]node, n1+n2),
		norm1:        o1.Normalize,
		norm2:        o2.Normalize,
		rels:         make(map[string][]relRef),
		typeSubs:     make(map[string][]node),
	}
	for r := 0; r < n1; r++ {
		key := o1.ResourceKey(store.Resource(r))
		c := &kb.clusters[ent1[r]]
		c.keys1 = append(c.keys1, key)
		kb.clusterByKey[key] = appendNode(kb.clusterByKey[key], ent1[r])
	}
	for r := 0; r < n2; r++ {
		key := o2.ResourceKey(store.Resource(r))
		c := &kb.clusters[ent2[r]]
		c.keys2 = append(c.keys2, key)
		kb.clusterByKey[key] = appendNode(kb.clusterByKey[key], ent2[r])
	}

	// Copy the literal dictionary: ApplyDelta interns new literals into
	// the shared table, so the live map cannot be read lock-free.
	kb.litVals = make([]string, lits.Len())
	kb.litByKey = make(map[string]store.Lit, lits.Len())
	for i := 0; i < lits.Len(); i++ {
		v := lits.Value(store.Lit(i))
		kb.litVals[i] = v
		kb.litByKey[v] = store.Lit(i)
	}

	// Relation tables over cluster nodes, then the expansion map: each base
	// IRI resolves to its direct tables plus, via the snapshot sub-relation
	// entries, the tables of its sub-relations in the other KB.
	tabs1 := buildTabs(o1, ent1)
	tabs2 := buildTabs(o2, ent2)
	add := func(iri string, ref relRef) {
		for _, have := range kb.rels[iri] {
			if have == ref {
				return
			}
		}
		kb.rels[iri] = append(kb.rels[iri], ref)
	}
	for i, t := range tabs1 {
		add(o1.RelationName(store.Relation(2*i)), relRef{tab: t})
		kb.numStmts += t.size()
	}
	for i, t := range tabs2 {
		add(o2.RelationName(store.Relation(2*i)), relRef{tab: t})
		kb.numStmts += t.size()
	}
	type1 := buildTypeTab(o1, ent1)
	type2 := buildTypeTab(o2, ent2)
	add(rdfTypeIRI, relRef{tab: type1})
	add(rdfTypeIRI, relRef{tab: type2})
	kb.numStmts += type1.size() + type2.size()

	if snap != nil {
		expand := func(entries []core.SnapshotRelation, sub *store.Ontology, tabs []*relTab) {
			for _, e := range entries {
				if e.P < minScore {
					continue
				}
				subBase, subInv := splitInv(e.Sub)
				superBase, superInv := splitInv(e.Super)
				r, ok := sub.LookupRelation(subBase)
				if !ok {
					continue
				}
				add(superBase, relRef{tab: tabs[int(r)/2], inv: subInv != superInv})
			}
		}
		expand(snap.Relations12, o1, tabs1)
		expand(snap.Relations21, o2, tabs2)

		classes := func(entries []core.SnapshotClass, sub *store.Ontology, ent []node) {
			for _, e := range entries {
				if e.P < minScore {
					continue
				}
				c, ok := sub.LookupResource(e.Sub)
				if !ok {
					continue
				}
				kb.typeSubs[e.Super] = appendNode(kb.typeSubs[e.Super], ent[c])
			}
		}
		classes(snap.Classes12, o1, ent1)
		classes(snap.Classes21, o2, ent2)
	}
	return kb, nil
}

// buildTabs maps every base relation's statements onto cluster nodes.
// Base-relation statement subjects are always resources; objects may be
// literals, which keep their shared-table IDs.
func buildTabs(o *store.Ontology, ent []node) []*relTab {
	tabs := make([]*relTab, o.NumBaseRelations())
	for i := range tabs {
		r := store.Relation(2 * i)
		st := make([]stmt, 0, o.NumStatements(r))
		o.EachStatement(r, func(s, obj store.Node) bool {
			st = append(st, stmt{s: mapNode(s, ent), o: mapNode(obj, ent)})
			return true
		})
		tabs[i] = newRelTab(o.Name()+":"+o.RelationName(r), st)
	}
	return tabs
}

// buildTypeTab materializes rdf:type as a pseudo relation table. ClassesOf
// is deductively closed over rdfs:subClassOf, so within-KB subclass
// semantics come for free; cross-KB subclass entries are handled by the
// typeSubs expansion at constant-resolution time.
func buildTypeTab(o *store.Ontology, ent []node) *relTab {
	var st []stmt
	for _, x := range o.Instances() {
		for _, c := range o.ClassesOf(x) {
			st = append(st, stmt{s: ent[x], o: ent[c]})
		}
	}
	return newRelTab(o.Name()+":"+rdfTypeIRI, st)
}

func mapNode(n store.Node, ent []node) node {
	if n.IsLit() {
		return litNode | node(n.Lit())
	}
	return ent[n.Res()]
}

func appendNode(ns []node, n node) []node {
	for _, have := range ns {
		if have == n {
			return ns
		}
	}
	return append(ns, n)
}

func splitInv(name string) (string, bool) {
	if strings.HasSuffix(name, invSuffix) {
		return strings.TrimSuffix(name, invSuffix), true
	}
	return name, false
}

// relRefs resolves a predicate IRI to its tables; a ⁻¹ suffix flips the
// match direction of every resolved table.
func (kb *KB) relRefs(iri string) []relRef {
	base, inv := splitInv(iri)
	refs := kb.rels[base]
	if !inv {
		return refs
	}
	out := make([]relRef, len(refs))
	for i, r := range refs {
		out[i] = relRef{tab: r.tab, inv: !r.inv}
	}
	return out
}

// constNodes resolves a constant term to the union-KB nodes it denotes.
// typeObj marks the object position of an rdf:type pattern, where an IRI
// constant additionally expands through the cross-KB subclass tables.
// An empty result means the constant denotes nothing — the pattern (and
// hence the query) has no matches.
func (kb *KB) constNodes(t Term, typeObj bool) []node {
	switch t.Kind {
	case TermIRI:
		key := "<" + t.Value + ">"
		nodes := kb.clusterByKey[key]
		if typeObj {
			if subs := kb.typeSubs[key]; len(subs) > 0 {
				merged := append(append([]node(nil), nodes...), subs...)
				out := merged[:0]
				for _, n := range merged {
					out = appendNode(out, n)
				}
				return out
			}
		}
		return nodes
	case TermLit:
		// The two ontologies may intern under different normalizers; try
		// both, then the raw spelling.
		term := rdf.Literal(t.Value)
		for _, k := range [3]string{kb.norm1(term), kb.norm2(term), t.Value} {
			if l, ok := kb.litByKey[k]; ok {
				return []node{litNode | node(l)}
			}
		}
		return nil
	default:
		return nil
	}
}

// value renders a node for a result row.
func (kb *KB) value(n node) Value {
	if n.isLit() {
		v := kb.litVals[n.lit()]
		return Value{Literal: &v}
	}
	c := kb.clusters[n]
	return Value{KB1: c.keys1, KB2: c.keys2}
}
