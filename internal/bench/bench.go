// Package bench implements the reproduction harness: one function per table
// and figure of the paper's evaluation section (the runners table in
// cmd/parisbench indexes them by experiment name). cmd/parisbench prints the
// results in the paper's format; the root-level Go benchmarks time the same
// workloads.
package bench

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/store"
)

// RelEval scores relation alignments against a dataset's relation gold.
type RelEval struct {
	Aligned     int // sub-relations with a maximal super-relation
	Correct     int // of those, matching the gold (inverses judged separately)
	CorrectBase int // distinct base relations aligned correctly
	Gold        int // gold pairs (base relations only)
}

// Precision returns Correct/Aligned.
func (e RelEval) Precision() float64 {
	if e.Aligned == 0 {
		return 0
	}
	return float64(e.Correct) / float64(e.Aligned)
}

// Recall returns CorrectBase/Gold.
func (e RelEval) Recall() float64 {
	if e.Gold == 0 {
		return 0
	}
	return float64(e.CorrectBase) / float64(e.Gold)
}

// String renders the numbers in the paper's "Num / Prec" style.
func (e RelEval) String() string {
	return fmt.Sprintf("num %d  prec %.0f%%  rec %.0f%%",
		e.Aligned, 100*e.Precision(), 100*e.Recall())
}

// invertRelGold flips a relation gold map (o1→o2 becomes o2→o1), keeping
// the "⁻¹" inversion marker consistent.
func invertRelGold(gold map[string]string) map[string]string {
	inv := make(map[string]string, len(gold))
	for k, v := range gold {
		if strings.HasSuffix(v, "⁻¹") {
			inv[strings.TrimSuffix(v, "⁻¹")] = k + "⁻¹"
		} else {
			inv[v] = k
		}
	}
	return inv
}

// EvalRelations scores the maximal relation alignments from src to dst
// against gold (a map from src base-relation IRI to dst relation IRI, with
// "⁻¹" marking inverted pairs). Sub-relations without a gold entry are
// ignored, mirroring the paper's manual evaluation which skips relations
// that have no counterpart.
func EvalRelations(src, dst *store.Ontology, alignments []core.RelAlignment, gold map[string]string) RelEval {
	e := RelEval{Gold: len(gold)}
	expected := make(map[string]string, 2*len(gold))
	for k, v := range gold {
		expected[k] = v
		// The inverse pair: k⁻¹ ≡ v⁻¹ (double inversion cancels).
		if strings.HasSuffix(v, "⁻¹") {
			expected[k+"⁻¹"] = strings.TrimSuffix(v, "⁻¹")
		} else {
			expected[k+"⁻¹"] = v + "⁻¹"
		}
	}
	correctBase := map[string]bool{}
	for _, ra := range core.MaxRelAlignments(alignments) {
		subName := src.RelationName(ra.Sub)
		want, ok := expected[subName]
		if !ok {
			continue
		}
		e.Aligned++
		if dst.RelationName(ra.Super) == want {
			e.Correct++
			correctBase[strings.TrimSuffix(subName, "⁻¹")] = true
		}
	}
	e.CorrectBase = len(correctBase)
	return e
}

// ClassEval scores class alignments against a dataset's class gold at a
// probability threshold.
type ClassEval struct {
	Threshold float64
	Aligned   int // scored (sub, super) pairs above the threshold with gold
	Correct   int // pairs whose super is the gold class or an ancestor of it
	Subs      int // distinct sub-classes with at least one alignment
}

// Precision returns Correct/Aligned.
func (e ClassEval) Precision() float64 {
	if e.Aligned == 0 {
		return 0
	}
	return float64(e.Correct) / float64(e.Aligned)
}

// ancestors returns the transitive superclasses of c, including c.
func ancestors(o *store.Ontology, c store.Resource) map[store.Resource]bool {
	seen := map[store.Resource]bool{c: true}
	stack := []store.Resource{c}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, sup := range o.Superclasses(cur) {
			if !seen[sup] {
				seen[sup] = true
				stack = append(stack, sup)
			}
		}
	}
	return seen
}

// EvalClasses scores subclass alignments from src into dst at the given
// threshold: a pair (c ⊆ c') is correct when c' is the gold class of c or
// one of its superclasses (a subclass statement into any ancestor is true).
// Pairs whose sub-class has no gold entry are skipped, like the paper's
// exclusion of high-level classes it could not judge.
func EvalClasses(src, dst *store.Ontology, alignments []core.ClassAlignment, gold map[string]string, threshold float64) ClassEval {
	e := ClassEval{Threshold: threshold}
	okSupers := map[store.Resource]map[store.Resource]bool{}
	subsSeen := map[store.Resource]bool{}
	for _, ca := range core.FilterClassAlignments(alignments, threshold) {
		goldIRI, ok := gold[trimKey(src.ResourceKey(ca.Sub))]
		if !ok {
			continue
		}
		goldClass, ok := dst.LookupResource("<" + goldIRI + ">")
		if !ok {
			continue
		}
		allowed, ok := okSupers[goldClass]
		if !ok {
			allowed = ancestors(dst, goldClass)
			okSupers[goldClass] = allowed
		}
		e.Aligned++
		if !subsSeen[ca.Sub] {
			subsSeen[ca.Sub] = true
			e.Subs++
		}
		if allowed[ca.Super] {
			e.Correct++
		}
	}
	return e
}

// trimKey strips the <> of a resource key, yielding the IRI.
func trimKey(key string) string {
	return strings.TrimSuffix(strings.TrimPrefix(key, "<"), ">")
}

// CountClassAlignments returns the number of distinct sub-classes of the
// alignment list with at least one super scoring >= threshold (the Figure 2
// series).
func CountClassAlignments(alignments []core.ClassAlignment, threshold float64) int {
	subs := map[store.Resource]bool{}
	for _, ca := range alignments {
		if ca.P >= threshold {
			subs[ca.Sub] = true
		}
	}
	return len(subs)
}

// buildOrPanic freezes a generated dataset; generation cannot produce
// invalid triples, so an error here is a programming bug.
func buildOrPanic(d *gen.Dataset, norm store.Normalizer) (*store.Ontology, *store.Ontology) {
	o1, o2, err := d.Build(norm)
	if err != nil {
		panic(err)
	}
	return o1, o2
}

// evalInstances scores a result's maximal assignment against the gold.
func evalInstances(d *gen.Dataset, res *core.Result) eval.Metrics {
	return d.Gold.Evaluate(res.InstanceMap())
}
