package query

// The planner is deliberately statistics-free, following the janus-datalog
// recipe: greedy clause ordering — most bound positions first, smallest
// total fanout as the tie-break — plans in microseconds and is good enough
// for conjunctive patterns of this size. Constant resolution (relation
// expansion through the sub-relation tables, class expansion through the
// subclass tables, key/literal interning) happens here, once per shape,
// so cached plans skip it entirely; hash indexes for small tables are also
// forced at plan time, so a cache hit pays neither planning nor index
// build cost.

// constSet is a resolved constant: the set of union-KB nodes a query
// constant denotes (usually one; several for keys interned by both KBs or
// for class constants expanded through the subclass tables).
type constSet struct {
	list []node
	set  map[node]bool // built above smallConstSet for O(1) membership
}

const smallConstSet = 4

func newConstSet(ns []node) *constSet {
	cs := &constSet{list: ns}
	if len(ns) > smallConstSet {
		cs.set = make(map[node]bool, len(ns))
		for _, n := range ns {
			cs.set[n] = true
		}
	}
	return cs
}

func (c *constSet) has(n node) bool {
	if c.set != nil {
		return c.set[n]
	}
	for _, have := range c.list {
		if have == n {
			return true
		}
	}
	return false
}

// step is one planned pattern: its expanded tables and its resolved
// subject/object accessors. Slot is -1 when the position is a constant.
type step struct {
	pat            Pattern
	refs           []relRef
	sSlot, oSlot   int
	sConst, oConst *constSet
}

// plan is the ordered operator tree (a left-deep chain of index-scan /
// bind-join steps) for one query shape. Plans are immutable and shared
// across executions via the Engine's cache.
type plan struct {
	// empty marks a query that can never match: a predicate resolving to
	// no table in either KB, or a constant denoting nothing.
	empty bool
	nvars int
	steps []step
}

// newPlan compiles and orders a parsed query against the KB.
func (kb *KB) newPlan(q *Query) *plan {
	kb.planCalls.Add(1)
	slotOf := make(map[string]int, len(q.Vars))
	for i, v := range q.Vars {
		slotOf[v] = i
	}
	p := &plan{nvars: len(q.Vars)}

	type cand struct {
		st     step
		fanout int
	}
	cands := make([]cand, 0, len(q.Patterns))
	for _, pat := range q.Patterns {
		base, predInv := splitInv(pat.P.Value)
		refs := kb.relRefs(pat.P.Value)
		if len(refs) == 0 {
			p.empty = true
			return p
		}
		st := step{pat: pat, refs: refs, sSlot: -1, oSlot: -1}
		isType := base == rdfTypeIRI
		if pat.S.IsVar() {
			st.sSlot = slotOf[pat.S.Value]
		} else {
			nodes := kb.constNodes(pat.S, isType && predInv)
			if len(nodes) == 0 {
				p.empty = true
				return p
			}
			st.sConst = newConstSet(nodes)
		}
		if pat.O.IsVar() {
			st.oSlot = slotOf[pat.O.Value]
		} else {
			nodes := kb.constNodes(pat.O, isType && !predInv)
			if len(nodes) == 0 {
				p.empty = true
				return p
			}
			st.oConst = newConstSet(nodes)
		}
		fanout := 0
		for _, r := range refs {
			fanout += r.tab.size()
		}
		cands = append(cands, cand{st: st, fanout: fanout})
	}

	// Greedy join order: repeatedly take the pattern with the most bound
	// positions (constants, or variables bound by an earlier step); break
	// ties by smaller total statement count, then by written order.
	bound := make([]bool, len(q.Vars))
	used := make([]bool, len(cands))
	for range cands {
		best, bestScore, bestFan := -1, -1, 0
		for i := range cands {
			if used[i] {
				continue
			}
			c := &cands[i]
			score := 0
			if c.st.sConst != nil || (c.st.sSlot >= 0 && bound[c.st.sSlot]) {
				score++
			}
			if c.st.oConst != nil || (c.st.oSlot >= 0 && bound[c.st.oSlot]) {
				score++
			}
			if best < 0 || score > bestScore || (score == bestScore && c.fanout < bestFan) {
				best, bestScore, bestFan = i, score, c.fanout
			}
		}
		used[best] = true
		st := cands[best].st
		if st.sSlot >= 0 {
			bound[st.sSlot] = true
		}
		if st.oSlot >= 0 {
			bound[st.oSlot] = true
		}
		// Pre-size the hash indexes of small tables now so executions —
		// including every future cache hit on this shape — get O(1) bound
		// lookups without ever building an index on the hot path.
		for _, r := range st.refs {
			if r.tab.canHash() {
				r.tab.buildHash()
			}
		}
		p.steps = append(p.steps, st)
	}
	return p
}
