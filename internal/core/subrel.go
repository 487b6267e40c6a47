package core

import (
	"cmp"
	"slices"

	"repro/internal/literal"
	"repro/internal/store"
)

// relScore is one entry of a sub-relation row: a relation of the other
// ontology and an inclusion probability.
type relScore struct {
	rel store.Relation
	p   float64
}

// subRelStore holds the directed sub-relation scores of one iteration as
// sparse rows. to2[r1] lists (r2, P(r1 ⊆ r2)) for relation r1 of ontology 1
// and to1[r2] lists (r1, P(r2 ⊆ r1)) for relation r2 of ontology 2; every row
// is sorted by the other ontology's relation and holds only the scores that
// survived truncation, so memory grows with the number of non-zero scores,
// never with the number of relation pairs. Missing entries are zero; before
// the first iteration (nil store) every pair scores the bootstrap value θ
// (Section 5.1).
type subRelStore struct {
	to2 [][]relScore
	to1 [][]relScore
}

// relLink pairs one ontology-2 relation with its inclusion scores against a
// fixed ontology-1 relation.
type relLink struct {
	rel store.Relation // ontology-2 relation
	p12 float64        // P(r1 ⊆ rel)
	p21 float64        // P(rel ⊆ r1)
}

// linkRows joins both directions of the store into one row per ontology-1
// relation r1: every ontology-2 relation with a score against r1 in either
// direction, sorted by that relation. The instance pass builds the rows once
// and reads both the Equation (13) and the Equation (14) factors from them.
func (s *subRelStore) linkRows() [][]relLink {
	// back[r1] lists (r2, P(r2 ⊆ r1)) in r2 order.
	back := make([][]relScore, len(s.to2))
	for r2, row := range s.to1 {
		for _, sc := range row {
			back[sc.rel] = append(back[sc.rel], relScore{rel: store.Relation(r2), p: sc.p})
		}
	}
	links := make([][]relLink, len(s.to2))
	for r1, fwd := range s.to2 {
		bwd := back[r1]
		row := make([]relLink, 0, len(fwd)+len(bwd))
		for len(fwd) > 0 || len(bwd) > 0 {
			switch {
			case len(bwd) == 0 || len(fwd) > 0 && fwd[0].rel < bwd[0].rel:
				row = append(row, relLink{rel: fwd[0].rel, p12: fwd[0].p})
				fwd = fwd[1:]
			case len(fwd) == 0 || bwd[0].rel < fwd[0].rel:
				row = append(row, relLink{rel: bwd[0].rel, p21: bwd[0].p})
				bwd = bwd[1:]
			default:
				row = append(row, relLink{rel: fwd[0].rel, p12: fwd[0].p, p21: bwd[0].p})
				fwd, bwd = fwd[1:], bwd[1:]
			}
		}
		links[r1] = row
	}
	return links
}

// subRelationPass evaluates Equation (12) in both directions:
//
//	P(r ⊆ r') = Σ_{r(x,y)} (1 - Π_{r'(x',y')} (1 - P(x≡x')·P(y≡y')))
//	          / Σ_{r(x,y)} (1 - Π_{x',y'}    (1 - P(x≡x')·P(y≡y')))
//
// following the Section 5.2 optimizations: only the equalities of the
// previous maximal assignment are considered (unless AllEqualities), at most
// PairLimit statements per relation are evaluated, and scores below θ are
// dropped. Scores for inverse relations are derived from the base pair,
// since P(r⁻¹ ⊆ r'⁻¹) = P(r ⊆ r') holds exactly.
func (a *Aligner) subRelationPass() *subRelStore {
	return &subRelStore{
		to2: a.subRelDirection(a.o1, a.o2, a.equalsOf1),
		to1: a.subRelDirection(a.o2, a.o1, a.equalsOf2),
	}
}

// relScratch is the per-worker state of the relation pass. num and seen are
// dense over the relations of the destination ontology: num accumulates the
// numerators of the current row, seen marks the relations written, and
// touched lists them, so draining the row costs only what it wrote. perStmt
// holds the per-statement products, which touch only a few relations each;
// lits is the literal matcher's scratch (see equalsOf1).
type relScratch struct {
	num        []float64
	seen       []bool
	touched    []store.Relation
	perStmt    []relScore
	xBuf, yBuf []weighted
	lits       []literal.Weighted
}

// subRelDirection returns the rows {r': P(r ⊆ r')} for every relation r of
// src, with r' ranging over relations of dst.
func (a *Aligner) subRelDirection(
	src, dst *store.Ontology,
	equals func(store.Node, []weighted, *[]literal.Weighted) []weighted,
) [][]relScore {
	out := make([][]relScore, src.NumRelations())
	newScratch := func() *relScratch {
		n := dst.NumRelations()
		return &relScratch{num: make([]float64, n), seen: make([]bool, n)}
	}
	parallelFor(src.NumRelations()/2, a.cfg.Workers, newScratch, func(s *relScratch, i int) {
		base := store.Relation(2 * i)
		den := a.subRelRow(s, src, dst, base, equals)
		slices.Sort(s.touched)
		var direct []relScore
		for _, r2 := range s.touched {
			v := s.num[r2]
			s.num[r2], s.seen[r2] = 0, false
			if den == 0 {
				continue
			}
			p := v / den
			if p < a.cfg.Truncation || p == 0 {
				continue
			}
			if p > 1 {
				p = 1
			}
			direct = append(direct, relScore{rel: r2, p: p})
		}
		s.touched = s.touched[:0]
		if len(direct) == 0 {
			return
		}
		inverse := make([]relScore, len(direct))
		for k, sc := range direct {
			inverse[k] = relScore{rel: sc.rel.Inverse(), p: sc.p}
		}
		slices.SortFunc(inverse, byRelation)
		out[base], out[base.Inverse()] = direct, inverse
	})
	return out
}

// byRelation orders the entries of a sub-relation row by relation.
func byRelation(x, y relScore) int { return cmp.Compare(x.rel, y.rel) }

// subRelRow accumulates the numerator per destination relation into s.num
// and returns the shared denominator for one base relation of src.
func (a *Aligner) subRelRow(
	s *relScratch,
	src, dst *store.Ontology,
	r store.Relation,
	equals func(store.Node, []weighted, *[]literal.Weighted) []weighted,
) float64 {
	den := 0.0
	count := 0
	src.EachStatement(r, func(x, y store.Node) bool {
		count++
		if count > a.cfg.PairLimit {
			return false
		}
		s.xBuf = equals(x, s.xBuf[:0], &s.lits)
		if len(s.xBuf) == 0 {
			return true
		}
		s.yBuf = equals(y, s.yBuf[:0], &s.lits)
		if len(s.yBuf) == 0 {
			return true
		}
		// Denominator term: 1 - Π over all equal pairs (x', y').
		denProd := 1.0
		perStmt := s.perStmt[:0]
		for _, wx := range s.xBuf {
			for _, wy := range s.yBuf {
				pp := float64(wx.p * wy.p) // rounded: no fused 1 - x*y
				denProd *= 1 - pp
				// Numerator: which dst relations connect x' to y'?
				for _, e := range edgesFrom(dst, wx.node) {
					if e.To != wy.node {
						continue
					}
					k := 0
					for k < len(perStmt) && perStmt[k].rel != e.Rel {
						k++
					}
					if k == len(perStmt) {
						perStmt = append(perStmt, relScore{rel: e.Rel, p: 1 - pp})
					} else {
						perStmt[k].p *= 1 - pp
					}
				}
			}
		}
		den += 1 - denProd
		for _, sc := range perStmt {
			if !s.seen[sc.rel] {
				s.seen[sc.rel] = true
				s.touched = append(s.touched, sc.rel)
			}
			s.num[sc.rel] += 1 - sc.p
		}
		s.perStmt = perStmt
		return true
	})
	return den
}

// edgesFrom returns the statements of dst whose first argument is x.
func edgesFrom(dst *store.Ontology, x store.Node) []store.Edge {
	if x.IsLit() {
		return dst.LitEdges(x.Lit())
	}
	return dst.Edges(x.Res())
}
