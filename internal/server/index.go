package server

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/literal"
)

// Match is one direction-resolved sameAs answer: the matched entity key in
// the other knowledge base and the equality probability.
type Match struct {
	Key string  `json:"key"`
	P   float64 `json:"p"`
}

// index is the immutable in-memory serving structure built from one
// snapshot. Readers obtain it through an atomic pointer and then work on
// plain maps and slices that are never mutated after buildIndex returns —
// the RCU discipline that keeps the read path lock-free: publishing a new
// snapshot swaps the pointer, it never touches a live index. The one
// exception is the pair of normalized maps: they are written once, inside
// normOnce, and read only after it.
type index struct {
	id        string
	kb1, kb2  string
	createdAt time.Time

	// fwd maps ontology-1 keys to their ontology-2 match; rev the reverse.
	fwd, rev map[string]Match

	// instances is the snapshot's assignment list, in snapshot order; the
	// normalized maps are built from it.
	instances []core.SnapshotAssignment

	// normFwd and normRev map folded keys (lowercased, alphanumeric runes
	// only) to the canonical keys they collapse from, the fallback for
	// clients that do not know exact key syntax. Only that fallback reads
	// them, so the first normalized lookup builds them (normOnce).
	normOnce         sync.Once
	normFwd, normRev map[string][]string

	relations12, relations21 []core.SnapshotRelation
	classes12, classes21     []core.SnapshotClass
}

// buildIndex constructs the serving index for one snapshot. It is the only
// place index fields are written, apart from the normalized maps
// (buildNormalized). The relation and class slices are sorted here, once
// per snapshot, so the read handlers only filter.
func buildIndex(id string, snap *core.ResultSnapshot) *index {
	ix := &index{
		id:        id,
		kb1:       snap.KB1,
		kb2:       snap.KB2,
		createdAt: snap.CreatedAt,

		fwd:       make(map[string]Match, len(snap.Instances)),
		rev:       make(map[string]Match, len(snap.Instances)),
		instances: snap.Instances,

		relations12: snap.Relations12,
		relations21: snap.Relations21,
		classes12:   snap.Classes12,
		classes21:   snap.Classes21,
	}
	for _, a := range snap.Instances {
		ix.fwd[a.Key1] = Match{Key: a.Key2, P: a.P}
		// Instances is a per-entity argmax, not an injective matching, so
		// several ontology-1 entities may share one ontology-2 match; keep
		// the reverse entry deterministic: highest probability, then
		// smallest key.
		m := Match{Key: a.Key1, P: a.P}
		if old, seen := ix.rev[a.Key2]; !seen || m.P > old.P || (m.P == old.P && m.Key < old.Key) {
			ix.rev[a.Key2] = m
		}
	}
	sortScores(ix.relations12, func(r core.SnapshotRelation) (string, float64) { return r.Sub, r.P })
	sortScores(ix.relations21, func(r core.SnapshotRelation) (string, float64) { return r.Sub, r.P })
	sortScores(ix.classes12, func(c core.SnapshotClass) (string, float64) { return c.Sub, c.P })
	sortScores(ix.classes21, func(c core.SnapshotClass) (string, float64) { return c.Sub, c.P })
	return ix
}

// buildNormalized fills normFwd and normRev, walking the assignments in
// snapshot order: normFwd lists every Key1 (unique per assignment), normRev
// each Key2 the first time it appears. A repeated Key2 folds to the list
// that already holds it, so the membership test scans no more keys than a
// lookup of that fold returns. Runs once per index, inside normOnce.
func (ix *index) buildNormalized() {
	ix.normFwd = make(map[string][]string, len(ix.instances))
	ix.normRev = make(map[string][]string, len(ix.instances))
	for _, a := range ix.instances {
		n1 := foldKey(a.Key1)
		ix.normFwd[n1] = append(ix.normFwd[n1], a.Key1)
		n2 := foldKey(a.Key2)
		if !slices.Contains(ix.normRev[n2], a.Key2) {
			ix.normRev[n2] = append(ix.normRev[n2], a.Key2)
		}
	}
	if testNormalizedBuilt != nil {
		testNormalizedBuilt(ix)
	}
}

// testNormalizedBuilt, when non-nil, runs after buildNormalized fills an
// index's maps. Tests use it to count builds.
var testNormalizedBuilt func(*index)

// sortScores orders by descending probability, then sub key, the order the
// relations and classes endpoints serve.
func sortScores[T any](scores []T, key func(T) (string, float64)) {
	sort.Slice(scores, func(i, j int) bool {
		subI, pI := key(scores[i])
		subJ, pJ := key(scores[j])
		if pI != pJ {
			return pI > pJ
		}
		return subI < subJ
	})
}

// lookup resolves key in the given direction (true = ontology 1 → 2) by
// exact match, also trying the angle-bracketed IRI form for clients that
// pass bare IRIs. It takes no locks.
func (ix *index) lookup(fwd bool, key string) (Match, bool) {
	m := ix.fwd
	if !fwd {
		m = ix.rev
	}
	if hit, ok := m[key]; ok {
		return hit, true
	}
	if !strings.HasPrefix(key, "<") {
		if hit, ok := m["<"+key+">"]; ok {
			return hit, true
		}
	}
	return Match{}, false
}

// lookupNormalized resolves key through the folded-key maps, returning every
// match whose canonical key collapses to the same folded form, in snapshot
// order. The first call on an index builds the maps; concurrent first
// callers wait for that one build. The caller caches the result.
func (ix *index) lookupNormalized(fwd bool, key string) []Match {
	ix.normOnce.Do(ix.buildNormalized)
	norm, exact := ix.normFwd, ix.fwd
	if !fwd {
		norm, exact = ix.normRev, ix.rev
	}
	var out []Match
	for _, canonical := range norm[foldKey(key)] {
		if hit, ok := exact[canonical]; ok {
			out = append(out, hit)
		}
	}
	return out
}

// direction parses the kb query parameter: "1" (or the KB name) queries
// ontology-1 keys, "2" the reverse. Empty defaults to ontology 1. Names
// are only accepted when the two KB names differ — with colliding display
// names a by-name query would silently pick a direction, so it is rejected
// and the numeric forms remain the unambiguous address.
func (ix *index) direction(kb string) (fwd, ok bool) {
	switch kb {
	case "", "1":
		return true, true
	case "2":
		return false, true
	}
	if ix.kb1 != ix.kb2 {
		switch kb {
		case ix.kb1:
			return true, true
		case ix.kb2:
			return false, true
		}
	}
	return false, false
}

// foldKey lowercases and keeps only letters and digits, so
// "<http://a/Elvis_Presley>" and "http://a/elvis-presley" collapse to the
// same form — the serving-side analog of the paper's normalized literal
// equality (Section 5.3), tolerating case and punctuation drift in keys.
// It delegates to the literal package so key folding and literal
// normalization can never diverge.
func foldKey(k string) string { return literal.AlphaNumString(k) }
