package core

// The default equality table picks each row's maximum in one scan and
// derives the reverse maxima from the forward rows, without sorting. These
// tests pin it to the sort-based construction it replaced, kept below
// verbatim: every row sorted by byProbability, the reverse rows laid out by
// a counting pass and sorted the same way, the maxima read off the first
// elements.

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/store"
)

// refEqStore is the sort-based equality table.
type refEqStore struct {
	fwd [][]Cand
	rev [][]Cand

	maxFwd []Cand
	maxRev []Cand
}

func newRefEqStore(n1, n2 int) *refEqStore {
	e := &refEqStore{
		fwd:    make([][]Cand, n1),
		rev:    make([][]Cand, n2),
		maxFwd: make([]Cand, n1),
		maxRev: make([]Cand, n2),
	}
	for i := range e.maxFwd {
		e.maxFwd[i] = Cand{To: NoResource}
	}
	for i := range e.maxRev {
		e.maxRev[i] = Cand{To: NoResource}
	}
	return e
}

func (e *refEqStore) setFwd(x store.Resource, cands []Cand) {
	if len(cands) == 0 {
		return
	}
	slices.SortFunc(cands, byProbability)
	e.fwd[x] = cands
	e.maxFwd[x] = cands[0]
}

func (e *refEqStore) finish() {
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

// checkMaxima rebuilds the aligner's current table through the reference
// from copies of its rows and requires identical maxima, bit for bit. It
// returns the number of reverse rows whose two best candidates tie, where
// only the tie-break rule picks the maximum.
func checkMaxima(t *testing.T, a *Aligner, when string) (ties int) {
	t.Helper()
	ref := newRefEqStore(len(a.eq.maxFwd), len(a.eq.maxRev))
	for x, row := range a.eq.fwd {
		ref.setFwd(store.Resource(x), slices.Clone(row))
	}
	ref.finish()
	same := func(a, b Cand) bool {
		return a.To == b.To && math.Float64bits(a.P) == math.Float64bits(b.P)
	}
	for x, want := range ref.maxFwd {
		if got := a.eq.maxFwd[x]; !same(got, want) {
			t.Fatalf("%s: maxFwd[%d] = %+v, sort-based reference %+v", when, x, got, want)
		}
	}
	for y, want := range ref.maxRev {
		if got := a.eq.maxRev[y]; !same(got, want) {
			t.Fatalf("%s: maxRev[%d] = %+v, sort-based reference %+v", when, y, got, want)
		}
		if row := ref.rev[y]; len(row) > 1 && row[0].P == row[1].P {
			ties++
		}
	}
	return ties
}

// TestMaximaMatchSortedReference runs the golden corpora cold and then warm
// from the cold snapshot, and checks the maxima against the reference after
// the warm seeding and after every iteration, the Equation (14) filter
// included.
func TestMaximaMatchSortedReference(t *testing.T) {
	cases := []struct {
		name string
		d    *gen.Dataset
		cfg  Config
	}{
		{"world", gen.World(gen.WorldConfig{Seed: 1}), Config{MaxIterations: 4}},
		{"persons", gen.Persons(gen.PersonsConfig{N: 500, Seed: 3}), Config{}},
		{"movies", gen.Movies(gen.MoviesConfig{Seed: 2, People: 600, Movies: 200}), Config{NegativeEvidence: true}},
		{"restaurants", gen.Restaurants(gen.RestaurantsConfig{Seed: 5}), Config{}},
	}
	ties := 0
	for _, tc := range cases {
		o1, o2 := buildGolden(t, tc.d)
		cfg := tc.cfg
		cfg.OnIteration = func(it int, a *Aligner) {
			ties += checkMaxima(t, a, fmt.Sprintf("%s cold iteration %d", tc.name, it))
		}
		res := New(o1, o2, cfg).Run()

		cfg.OnIteration = func(it int, a *Aligner) {
			ties += checkMaxima(t, a, fmt.Sprintf("%s warm iteration %d", tc.name, it))
		}
		a, err := NewWarm(o1, o2, cfg, res.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		ties += checkMaxima(t, a, tc.name+" warm seed")
		a.Run()
	}
	// Without ties a reverse scan that let the later resource win a tie
	// would pass unnoticed.
	if ties == 0 {
		t.Fatal("no reverse row with tied maxima; the tie-break rule went unchecked")
	}
}

// TestCandidatesSortedCopy: Aligner.Candidates lists a row in
// byProbability order without reordering the stored row, which the default
// table keeps in the order the instance pass produced it.
func TestCandidatesSortedCopy(t *testing.T) {
	o1, o2 := buildGolden(t, gen.Persons(gen.PersonsConfig{N: 500, Seed: 3}))
	a := New(o1, o2, Config{MaxIterations: 2})
	a.Run()
	unsorted := 0
	for x, row := range a.eq.fwd {
		stored := slices.Clone(row)
		if !slices.IsSortedFunc(stored, byProbability) {
			unsorted++
		}
		want := slices.Clone(stored)
		slices.SortFunc(want, byProbability)
		if got := a.Candidates(store.Resource(x)); !slices.Equal(got, want) {
			t.Fatalf("Candidates(%d) = %v, want %v", x, got, want)
		}
		if !slices.Equal(a.eq.fwd[x], stored) {
			t.Fatalf("Candidates(%d) reordered the stored row: %v, was %v", x, a.eq.fwd[x], stored)
		}
	}
	if unsorted == 0 {
		t.Fatal("every stored row already sorted; the copy went unchecked")
	}
}
