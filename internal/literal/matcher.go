package literal

import (
	"sort"

	"repro/internal/store"
)

// Weighted is a candidate literal of the target ontology together with the
// clamped probability that it equals the query literal.
type Weighted struct {
	Lit store.Lit
	P   float64
}

// Matcher produces, for a literal of one ontology, the literals of the
// target ontology it could be equal to, with clamped probabilities
// (Section 5.3). AppendCandidates appends them to dst and returns the
// extended slice, so a caller can reuse one buffer across lookups.
// Implementations must be safe for concurrent use.
type Matcher interface {
	AppendCandidates(dst []Weighted, l store.Lit) []Weighted
}

// IdentityMatcher is the paper's default matcher: a literal is equal only to
// itself (probability 1), and only if the target ontology uses it too.
// Because both ontologies intern into a shared (normalized) literal table,
// this is a constant-time check.
type IdentityMatcher struct {
	Target *store.Ontology
}

// AppendCandidates implements Matcher.
func (m IdentityMatcher) AppendCandidates(dst []Weighted, l store.Lit) []Weighted {
	if !m.Target.HasLiteral(l) {
		return dst
	}
	return append(dst, Weighted{Lit: l, P: 1})
}

// Index is a fuzzy matcher: literals of the target ontology are blocked by a
// key function, and literals sharing a block are scored with a Comparator.
// It generalizes the identity matcher to edit-distance or numeric-proximity
// equality without comparing all pairs.
type Index struct {
	target  *store.Ontology
	cmp     Comparator
	minSim  float64
	block   func(string) string
	buckets map[string][]store.Lit
	maxCand int
}

// IndexOption configures an Index.
type IndexOption func(*Index)

// WithMinSim sets the similarity floor below which candidates are dropped.
func WithMinSim(min float64) IndexOption {
	return func(ix *Index) { ix.minSim = min }
}

// WithMaxCandidates caps the number of candidates returned per literal
// (highest similarity first). Zero means no cap.
func WithMaxCandidates(n int) IndexOption {
	return func(ix *Index) { ix.maxCand = n }
}

// NewIndex builds a fuzzy matcher over all literals occurring in target.
// block maps a literal value to its blocking key (e.g. AlphaNumString, or a
// length-truncated prefix); literals are only compared within a block. cmp
// scores pairs; nil defaults to Exact.
func NewIndex(target *store.Ontology, block func(string) string, cmp Comparator, opts ...IndexOption) *Index {
	if block == nil {
		block = func(s string) string { return s }
	}
	if cmp == nil {
		cmp = Exact{}
	}
	ix := &Index{
		target:  target,
		cmp:     cmp,
		minSim:  1e-9,
		block:   block,
		buckets: make(map[string][]store.Lit),
	}
	for _, opt := range opts {
		opt(ix)
	}
	lits := target.Literals()
	for id := 0; id < lits.Len(); id++ {
		l := store.Lit(id)
		if !target.HasLiteral(l) {
			continue
		}
		key := block(lits.Value(l))
		ix.buckets[key] = append(ix.buckets[key], l)
	}
	return ix
}

// AppendCandidates implements Matcher.
func (ix *Index) AppendCandidates(dst []Weighted, l store.Lit) []Weighted {
	value := ix.target.Literals().Value(l)
	n := len(dst)
	for _, cand := range ix.buckets[ix.block(value)] {
		sim := ix.cmp.Sim(value, ix.target.Literals().Value(cand))
		if sim >= ix.minSim {
			dst = append(dst, Weighted{Lit: cand, P: sim})
		}
	}
	if out := dst[n:]; ix.maxCand > 0 && len(out) > ix.maxCand {
		sort.Slice(out, func(i, j int) bool { return out[i].P > out[j].P })
		dst = dst[:n+ix.maxCand]
	}
	return dst
}
