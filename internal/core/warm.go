package core

import (
	"slices"
	"strings"

	"repro/internal/store"
)

// This file implements warm-started alignment: seeding a fresh fixpoint from
// the converged state of a previous run instead of from the neutral prior θ
// (Section 5.1). When the ontologies have only grown by a small delta since
// the prior run, the seeded state is already near the fixpoint, so the run
// converges in a fraction of the passes a cold start needs — the core of
// incremental re-alignment.

// NewWarm wires two ontologies into an Aligner seeded from a prior result
// snapshot: the instance-equality table starts from the snapshot's maximal
// assignments and the sub-relation tables from its relation scores, both
// resolved by key through the (possibly delta-extended) ontologies. Keys the
// ontologies no longer know are skipped silently; a nil prior degrades to a
// cold NewChecked.
//
// The first warm iteration therefore runs Equation (13) against converged
// equalities and Equation (12) scores rather than the bootstrap θ, and the
// convergence criterion compares against the seeded assignments — an
// unchanged KB converges in a single pass.
func NewWarm(o1, o2 *store.Ontology, cfg Config, prior *ResultSnapshot) (*Aligner, error) {
	a, err := NewChecked(o1, o2, cfg)
	if err != nil {
		return nil, err
	}
	if prior == nil {
		return a, nil
	}

	eq := newEqStore(o1.NumResources(), o2.NumResources(), a.cfg.AllEqualities)
	for _, sa := range prior.Instances {
		x1, ok1 := o1.LookupResource(sa.Key1)
		x2, ok2 := o2.LookupResource(sa.Key2)
		if ok1 && ok2 {
			eq.setFwd(x1, []Cand{{To: x2, P: sa.P}})
		}
	}
	eq.finish()
	a.eq = eq

	a.rel = &subRelStore{
		to2: seedScores(o1, o2, prior.Relations12),
		to1: seedScores(o2, o1, prior.Relations21),
	}
	return a, nil
}

// seedScores resolves snapshot relation names against the sub and super
// ontologies and returns one score row per sub relation, sorted by super
// relation; a pair listed twice keeps its last score. Snapshots store
// inverse rows explicitly (RelationAlignments enumerates them), so no
// derivation is needed here.
func seedScores(sub, super *store.Ontology, scores []SnapshotRelation) [][]relScore {
	out := make([][]relScore, sub.NumRelations())
	for _, sr := range scores {
		r1, ok1 := lookupRelationName(sub, sr.Sub)
		r2, ok2 := lookupRelationName(super, sr.Super)
		if !ok1 || !ok2 {
			continue
		}
		out[r1] = append(out[r1], relScore{rel: r2, p: sr.P})
	}
	for r1, row := range out {
		slices.SortStableFunc(row, byRelation)
		// Keep the last score of each run of equal relations.
		kept := row[:0]
		for i, sc := range row {
			if i+1 < len(row) && row[i+1].rel == sc.rel {
				continue
			}
			kept = append(kept, sc)
		}
		out[r1] = kept
	}
	return out
}

// inverseMarker is the suffix store.Ontology appends to inverse relation
// display names (see Builder).
const inverseMarker = "⁻¹"

// lookupRelationName resolves a snapshot relation name, which is either a
// base relation IRI or an IRI with the inverse marker appended.
func lookupRelationName(o *store.Ontology, name string) (store.Relation, bool) {
	if base, isInv := strings.CutSuffix(name, inverseMarker); isInv {
		r, ok := o.LookupRelation(base)
		return r.Inverse(), ok
	}
	r, ok := o.LookupRelation(name)
	return r, ok
}
