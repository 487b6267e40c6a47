package core

import (
	"cmp"
	"slices"

	"repro/internal/store"
)

// NoResource marks the absence of a maximal assignment.
const NoResource = store.Resource(^uint32(0))

// Cand is one equality candidate: a resource of the other ontology and the
// probability that it is equivalent.
type Cand struct {
	To store.Resource
	P  float64
}

// eqStore holds the sparse instance-equality table of one iteration: the
// candidate rows of the ontology-1 resources plus the maximal assignments in
// both directions (Section 4.2: "the instance from the second ontology with
// the maximum score"). False and unknown equalities are not stored, which the
// formulas cannot distinguish anyway (Section 5.2).
//
// By default the kernel reads only the maximal assignments, so rows keep the
// order the instance pass produced and no reverse rows exist. Under
// Config.AllEqualities the kernel multiplies over whole rows in order, so
// every row is sorted byProbability and rev holds the reverse rows, sorted
// the same way.
type eqStore struct {
	allEqualities bool

	fwd [][]Cand // ontology-1 resource -> candidates in ontology 2
	rev [][]Cand // ontology-2 resource -> candidates in ontology 1; nil unless allEqualities

	maxFwd []Cand // per ontology-1 resource; To == NoResource when absent
	maxRev []Cand
}

func newEqStore(n1, n2 int, allEqualities bool) *eqStore {
	e := &eqStore{
		allEqualities: allEqualities,
		fwd:           make([][]Cand, n1),
		maxFwd:        make([]Cand, n1),
		maxRev:        make([]Cand, n2),
	}
	for i := range e.maxFwd {
		e.maxFwd[i] = Cand{To: NoResource}
	}
	for i := range e.maxRev {
		e.maxRev[i] = Cand{To: NoResource}
	}
	return e
}

// setFwd installs the candidate row of one ontology-1 resource and records
// its maximal assignment, the row's first candidate in byProbability order.
// Calls for distinct resources may run concurrently.
func (e *eqStore) setFwd(x store.Resource, cands []Cand) {
	if len(cands) == 0 {
		return
	}
	if e.allEqualities {
		slices.SortFunc(cands, byProbability)
	}
	e.fwd[x] = cands
	e.maxFwd[x] = slices.MinFunc(cands, byProbability)
}

// byProbability orders candidates by descending probability, then by ID.
func byProbability(a, b Cand) int {
	if a.P != b.P {
		if a.P > b.P {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.To, b.To)
}

// finish derives the reverse maximal assignments from the forward rows: for
// every ontology-2 resource, the ontology-1 resource with the highest
// probability, ties to the lower ID. Scanning x in ascending order and
// replacing only on a strictly greater probability gives exactly that.
// Under AllEqualities it builds the sorted reverse rows instead and reads
// the maxima off their first elements.
func (e *eqStore) finish() {
	if e.allEqualities {
		e.buildRev()
		return
	}
	for x, cands := range e.fwd {
		for _, c := range cands {
			if m := &e.maxRev[c.To]; m.To == NoResource || c.P > m.P {
				*m = Cand{To: store.Resource(x), P: c.P}
			}
		}
	}
}

// buildRev builds the reverse rows and maxima from the forward rows. All
// reverse rows share one backing array, laid out by a counting pass.
func (e *eqStore) buildRev() {
	e.rev = make([][]Cand, len(e.maxRev))
	off := make([]int, len(e.rev)+1)
	for _, cands := range e.fwd {
		for _, c := range cands {
			off[c.To+1]++
		}
	}
	for y := range e.rev {
		off[y+1] += off[y]
	}
	all := make([]Cand, off[len(e.rev)])
	next := append([]int(nil), off[:len(e.rev)]...)
	for x, cands := range e.fwd {
		for _, c := range cands {
			all[next[c.To]] = Cand{To: store.Resource(x), P: c.P}
			next[c.To]++
		}
	}
	for y := range e.rev {
		if off[y] == off[y+1] {
			continue
		}
		cands := all[off[y]:off[y+1]:off[y+1]]
		slices.SortFunc(cands, byProbability)
		e.rev[y] = cands
		e.maxRev[y] = cands[0]
	}
}

// changedFraction compares maximal assignments against a previous iteration
// and returns the fraction of entities whose target changed, measured over
// the entities assigned in either iteration (Section 5.1's convergence
// criterion).
func (e *eqStore) changedFraction(prev *eqStore) float64 {
	if prev == nil {
		return 1
	}
	changed, total := 0, 0
	for x := range e.maxFwd {
		cur, old := e.maxFwd[x].To, prev.maxFwd[x].To
		if cur == NoResource && old == NoResource {
			continue
		}
		total++
		if cur != old {
			changed++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(changed) / float64(total)
}

// numAssigned returns the number of ontology-1 resources with an assignment.
func (e *eqStore) numAssigned() int {
	n := 0
	for _, c := range e.maxFwd {
		if c.To != NoResource {
			n++
		}
	}
	return n
}
