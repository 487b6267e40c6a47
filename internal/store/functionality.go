package store

// This file implements the global functionality of a relation (Section 3,
// Equations 1-2) and the alternative definitions discussed in Appendix A.
// Functionalities depend only on the statements inside one ontology, so they
// are computed once when the ontology is frozen (Section 5.1).

// FunMode selects one of the global-functionality definitions of Appendix A.
type FunMode int

const (
	// FunHarmonicMean is the paper's choice (Appendix A, alternatives 4/5):
	// fun(r) = #x ∃y r(x,y) / #x,y r(x,y), the harmonic mean of the local
	// functionalities.
	FunHarmonicMean FunMode = iota
	// FunPairRatio is alternative 1: #statements divided by the number of
	// statement pairs sharing a first argument. Volatile to single sources
	// with many targets.
	FunPairRatio
	// FunArgRatio is alternative 2: #first arguments / #second arguments.
	// Treacherous: a complete bipartite relation gets functionality 1.
	FunArgRatio
	// FunArithmeticMean is alternative 3 (used by Hogan et al.): the
	// arithmetic mean of the local functionalities.
	FunArithmeticMean
)

// String names the mode.
func (m FunMode) String() string {
	switch m {
	case FunHarmonicMean:
		return "harmonic-mean"
	case FunPairRatio:
		return "pair-ratio"
	case FunArgRatio:
		return "arg-ratio"
	case FunArithmeticMean:
		return "arithmetic-mean"
	default:
		return "unknown"
	}
}

// computeFunctionality fills o.fun with the harmonic-mean definition and
// o.funArgs with the distinct first-argument counts the harmonic mean is
// derived from. ApplyDelta maintains both incrementally (fun(r) =
// funArgs[r] / #statements), so deltas never rescan the statement lists.
//
// Distinct arguments are counted with mark arrays stamped per relation, one
// for subjects and one for objects: a resource that is both subject and
// object of a relation is a first argument in both directions.
func computeFunctionality(o *Ontology) {
	o.fun = make([]float64, len(o.relationNames))
	o.funArgs = make([]int, len(o.relationNames))
	subjMark := make([]uint32, len(o.resourceKeys)+o.lits.Len())
	objMark := make([]uint32, len(subjMark))
	for base := 0; base < len(o.relationNames); base += 2 {
		stmts := o.relStmts[base]
		if len(stmts) == 0 {
			continue
		}
		stamp := uint32(base/2 + 1)
		subjs, objs := 0, 0
		for _, st := range stmts {
			if i := o.markIndex(st.S); subjMark[i] != stamp {
				subjMark[i] = stamp
				subjs++
			}
			if i := o.markIndex(st.O); objMark[i] != stamp {
				objMark[i] = stamp
				objs++
			}
		}
		o.funArgs[base] = subjs
		o.funArgs[base+1] = objs
		o.fun[base] = float64(subjs) / float64(len(stmts))
		o.fun[base+1] = float64(objs) / float64(len(stmts))
	}
}

// markIndex numbers a statement argument for computeFunctionality's mark
// arrays: resources first, then the literals of the shared table.
func (o *Ontology) markIndex(n Node) int {
	if n.IsLit() {
		return len(o.resourceKeys) + int(n.Lit())
	}
	return int(n.Res())
}

// FunctionalityWith computes the global functionality of every relation
// (inverses included) under the given mode. The default mode's result is
// cached in the ontology; this method recomputes from the statement lists
// and is used by the Appendix A ablation.
func (o *Ontology) FunctionalityWith(mode FunMode) []float64 {
	fun := make([]float64, len(o.relationNames))
	for base := 0; base < len(o.relationNames); base += 2 {
		stmts := o.relStmts[base]
		if len(stmts) == 0 {
			continue
		}
		// Count, per direction, the number of statements per first argument.
		subjCount := make(map[Node]int, len(stmts))
		objCount := make(map[Node]int, len(stmts))
		for _, st := range stmts {
			subjCount[st.S]++
			objCount[st.O]++
		}
		fun[base] = globalFun(mode, subjCount, objCount, len(stmts))
		fun[base+1] = globalFun(mode, objCount, subjCount, len(stmts))
	}
	return fun
}

// globalFun computes one direction's functionality. firstArgs maps each
// distinct first argument to its number of statements; secondArgs likewise
// for the other direction; n is the total statement count.
func globalFun(mode FunMode, firstArgs, secondArgs map[Node]int, n int) float64 {
	switch mode {
	case FunHarmonicMean:
		// #x ∃y r(x,y) / #x,y r(x,y)
		return float64(len(firstArgs)) / float64(n)
	case FunPairRatio:
		// #statements / #pairs of statements with the same source, counting
		// ordered pairs (y, y') for the same x, i.e. sum of k² per source.
		pairs := 0
		for _, k := range firstArgs {
			pairs += k * k
		}
		return float64(n) / float64(pairs)
	case FunArgRatio:
		// #x ∃y r(x,y) / #y ∃x r(x,y)
		if len(secondArgs) == 0 {
			return 0
		}
		f := float64(len(firstArgs)) / float64(len(secondArgs))
		if f > 1 {
			f = 1
		}
		return f
	case FunArithmeticMean:
		// avg_x 1/#y : r(x,y)
		sum := 0.0
		for _, k := range firstArgs {
			sum += 1 / float64(k)
		}
		return sum / float64(len(firstArgs))
	default:
		return 0
	}
}
