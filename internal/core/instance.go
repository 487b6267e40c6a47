package core

import (
	"slices"

	"repro/internal/literal"
	"repro/internal/store"
)

// weighted is a node of the other ontology with an equality probability.
type weighted struct {
	node store.Node
	p    float64
}

// instancePass computes the instance-equality table of one iteration using
// Equation (13), or Equation (14) when negative evidence is enabled. It
// implements the optimized traversal of Section 5.2: for each instance x of
// ontology 1, follow every statement r(x, y), every known equal y' of y, and
// every statement r'(x', y') of ontology 2, accumulating the per-candidate
// product.
func (a *Aligner) instancePass() *eqStore {
	next := newEqStore(a.o1.NumResources(), a.o2.NumResources(), a.cfg.AllEqualities)
	// The bootstrap iteration scores every relation pair θ and builds no
	// link rows; later iterations read both factors from one row per
	// ontology-1 relation.
	var links [][]relLink
	if a.rel != nil {
		links = a.rel.linkRows()
	}
	newScratch := func() *instScratch {
		s := &instScratch{
			prod: make([]float64, a.o2.NumResources()),
			seen: make([]bool, a.o2.NumResources()),
			p12:  make([]float64, a.o2.NumRelations()),
			p21:  make([]float64, a.o2.NumRelations()),
		}
		if links == nil {
			for i := range s.p12 {
				s.p12[i], s.p21[i] = a.cfg.Theta, a.cfg.Theta
			}
		}
		return s
	}
	insts := a.o1.Instances()
	parallelFor(len(insts), a.cfg.Workers, newScratch, func(s *instScratch, i int) {
		next.setFwd(insts[i], a.instanceEqualities(s, links, insts[i]))
	})
	return next
}

// instScratch is the per-worker state of the instance pass.
//
// prod and seen are dense over the resources of ontology 2: prod[x']
// accumulates the Equation (13) product of candidate x' for the instance
// under evaluation, seen marks the candidates written so far, and touched
// lists them in first-touch order, so resetting after an instance costs only
// what it wrote. p12[r'] and p21[r'] hold the scores of the current
// ontology-1 relation against every ontology-2 relation r': the link row of
// that relation scattered densely (zero where it has no entry), or θ
// throughout in the bootstrap iteration. eqs holds the equalities of every
// statement's second argument, eqOff[k] the start of statement k's run; lits
// takes the literal matcher's candidates on their way into eqs. cands
// collects the kept candidates.
type instScratch struct {
	prod     []float64
	seen     []bool
	touched  []store.Resource
	p12, p21 []float64
	eqs      []weighted
	eqOff    []int
	lits     []literal.Weighted
	cands    []Cand
}

// instanceEqualities evaluates all equality candidates of one ontology-1
// instance and returns those above the threshold.
func (a *Aligner) instanceEqualities(s *instScratch, links [][]relLink, x store.Resource) []Cand {
	edges := a.o1.Edges(x)
	if len(edges) == 0 {
		return nil
	}
	s.eqs, s.eqOff = s.eqs[:0], append(s.eqOff[:0], 0)
	for _, e := range edges {
		s.eqs = a.equalsOf1(e.To, s.eqs, &s.lits)
		s.eqOff = append(s.eqOff, len(s.eqs))
	}
	// prod[x'] = Π over statement pairs of
	//   (1 - P(r'⊆r)·fun⁻¹(r)·P(y≡y')) · (1 - P(r⊆r')·fun⁻¹(r')·P(y≡y'))
	for k, e := range edges {
		eqs := s.eqs[s.eqOff[k]:s.eqOff[k+1]]
		if len(eqs) == 0 {
			continue
		}
		r := e.Rel
		if links != nil {
			if len(links[r]) == 0 {
				continue // every factor would be one
			}
			for _, l := range links[r] {
				s.p12[l.rel], s.p21[l.rel] = l.p12, l.p21
			}
		}
		invFunR := a.fun1[r.Inverse()]
		for _, w := range eqs {
			a.expandBridge(s, invFunR, w)
		}
		if links != nil {
			for _, l := range links[r] {
				s.p12[l.rel], s.p21[l.rel] = 0, 0
			}
		}
	}
	if len(s.touched) == 0 {
		return nil
	}
	// Negative evidence runs in the dedicated filter pass, once the
	// equalities feeding its inner products have converged (see Config).
	useNegative := a.negativePass && links != nil
	// In the bootstrap iteration all scores are scaled down by θ, so the
	// fixed truncation threshold would wipe them out for small θ. A floor
	// proportional to θ keeps the kept-candidate set θ-invariant, which is
	// what makes the final scores independent of θ (Section 6.3).
	threshold := a.cfg.Truncation
	if links == nil && a.cfg.Theta*0.5 < threshold {
		threshold = a.cfg.Theta * 0.5
	}
	cands := s.cands[:0]
	for _, x2 := range s.touched {
		p := 1 - s.prod[x2]
		s.seen[x2] = false
		if useNegative {
			p *= a.negativeEvidence(s, links, edges, x2)
		}
		if p >= threshold && p > 0 {
			cands = append(cands, Cand{To: x2, P: p})
		}
	}
	s.touched, s.cands = s.touched[:0], cands
	if len(cands) == 0 {
		return nil
	}
	return slices.Clone(cands)
}

// expandBridge walks the ontology-2 statements r'(x', y') whose second
// argument y' is equal to the current y with probability w.p, multiplying
// the Equation (13) factor into each candidate's product.
func (a *Aligner) expandBridge(s *instScratch, invFunR float64, w weighted) {
	edges2 := edgesFrom(a.o2, w.node)
	if len(edges2) > a.cfg.HubLimit {
		edges2 = edges2[:a.cfg.HubLimit]
	}
	for _, e2 := range edges2 {
		if e2.To.IsLit() {
			continue // x' must be an instance
		}
		x2 := e2.To.Res()
		if a.o2.IsClass(x2) {
			continue
		}
		// The ontology-2 statement is q(y', x'), i.e. r'(x', y') with
		// r' = q⁻¹.
		rp := e2.Rel.Inverse()
		// Each float64 conversion rounds its product, so no architecture
		// fuses 1 - x*y into one FMA and the digests hold everywhere.
		f := (1 - float64(s.p21[rp]*invFunR*w.p)) *
			(1 - float64(s.p12[rp]*a.fun2[rp.Inverse()]*w.p))
		if f == 1 {
			continue
		}
		if s.seen[x2] {
			s.prod[x2] *= f
		} else {
			s.prod[x2], s.seen[x2] = f, true
			s.touched = append(s.touched, x2)
		}
	}
}

// negativeEvidence computes the Pr2 factor of Equation (14) for a candidate
// pair (x, x'), given the statements edges of x and their equalities in s:
// for every statement r(x, y) and every ontology-2 relation r' related to r,
// multiply
//
//	(1 - fun(r)·P(r'⊆r)·Π_{y'':r'(x',y'')}(1-P(y≡y''))) ·
//	(1 - fun(r')·P(r⊆r')·Π_{y'':r'(x',y'')}(1-P(y≡y'')))
//
// When x' has no r'-statements the inner product is one (the paper's
// convention), penalizing instances whose counterpart lacks the relation.
func (a *Aligner) negativeEvidence(s *instScratch, links [][]relLink, edges []store.Edge, x2 store.Resource) float64 {
	edges2 := a.o2.Edges(x2)
	pr2 := 1.0
	for k, e := range edges {
		funR := a.fun1[e.Rel]
		eqs := s.eqs[s.eqOff[k]:s.eqOff[k+1]]
		for _, link := range links[e.Rel] {
			inner := 1.0
			for _, e2 := range edges2 {
				if e2.Rel != link.rel {
					continue
				}
				inner *= 1 - pEq(e.To, e2.To, eqs)
				if inner == 0 {
					break
				}
			}
			pr2 *= (1 - float64(funR*link.p21*inner)) *
				(1 - float64(a.fun2[link.rel]*link.p12*inner))
			if pr2 == 0 {
				return 0
			}
		}
	}
	return pr2
}

// pEq returns P(y ≡ y”) given the precomputed equality candidates of y.
func pEq(y store.Node, y2 store.Node, cands []weighted) float64 {
	for _, w := range cands {
		if w.node == y2 {
			return w.p
		}
	}
	return 0
}

// equalsOf1 appends to buf the ontology-2 nodes equal to the ontology-1
// node y with positive probability: literal candidates come from the clamped
// literal matcher, which appends them to the scratch *lits, resource
// candidates from the previous iteration's equalities (maximal assignment
// only, unless AllEqualities).
func (a *Aligner) equalsOf1(y store.Node, buf []weighted, lits *[]literal.Weighted) []weighted {
	if y.IsLit() {
		*lits = a.cfg.MatcherTo2.AppendCandidates((*lits)[:0], y.Lit())
		for _, c := range *lits {
			buf = append(buf, weighted{node: store.LitNode(c.Lit), p: c.P})
		}
		return buf
	}
	x := y.Res()
	if a.eq == nil {
		return buf
	}
	if a.cfg.AllEqualities {
		for _, c := range a.eq.fwd[x] {
			buf = append(buf, weighted{node: store.ResNode(c.To), p: c.P})
		}
		return buf
	}
	if m := a.eq.maxFwd[x]; m.To != NoResource {
		buf = append(buf, weighted{node: store.ResNode(m.To), p: m.P})
	}
	return buf
}

// equalsOf2 is the mirror of equalsOf1 for ontology-2 nodes.
func (a *Aligner) equalsOf2(y store.Node, buf []weighted, lits *[]literal.Weighted) []weighted {
	if y.IsLit() {
		*lits = a.cfg.MatcherTo1.AppendCandidates((*lits)[:0], y.Lit())
		for _, c := range *lits {
			buf = append(buf, weighted{node: store.LitNode(c.Lit), p: c.P})
		}
		return buf
	}
	x := y.Res()
	if a.eq == nil {
		return buf
	}
	if a.cfg.AllEqualities {
		for _, c := range a.eq.rev[x] {
			buf = append(buf, weighted{node: store.ResNode(c.To), p: c.P})
		}
		return buf
	}
	if m := a.eq.maxRev[x]; m.To != NoResource {
		buf = append(buf, weighted{node: store.ResNode(m.To), p: m.P})
	}
	return buf
}
