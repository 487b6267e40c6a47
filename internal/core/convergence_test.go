package core

// Convergence() invariants on a real fixpoint, observed through the
// OnIteration hook: the first iteration reports every assignment as new,
// score buckets always partition the assigned count, the pair movement
// (new − dropped) reconciles with the assignment delta between iterations,
// and a pre-run aligner reports all zeros.

import (
	"slices"
	"testing"

	"repro/internal/gen"
)

func TestConvergenceStatsInvariants(t *testing.T) {
	d := gen.Persons(gen.PersonsConfig{N: 60, Seed: 11})
	o1, o2, err := d.Build(nil)
	if err != nil {
		t.Fatal(err)
	}

	var stats []ConvergenceStats
	a, err := NewChecked(o1, o2, Config{
		OnIteration: func(it int, a *Aligner) {
			s := a.Convergence()
			if s.Iteration != it {
				t.Errorf("Convergence().Iteration = %d inside OnIteration(%d)", s.Iteration, it)
			}
			stats = append(stats, s)
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Before any iteration everything is zero.
	if s := a.Convergence(); s != (ConvergenceStats{}) {
		t.Errorf("pre-run Convergence() = %+v, want zero", s)
	}

	if a.Run() == nil {
		t.Fatal("no result")
	}
	if len(stats) < 2 {
		t.Fatalf("fixpoint ran %d iterations, need >= 2 for delta checks", len(stats))
	}

	first := stats[0]
	if first.Assigned == 0 {
		t.Fatal("first iteration assigned nothing")
	}
	if first.NewPairs != first.Assigned || first.ChangedPairs != 0 || first.DroppedPairs != 0 {
		t.Errorf("first iteration %+v: all assignments must be new", first)
	}

	prevAssigned := 0
	for i, s := range stats {
		if s.Iteration != i+1 {
			t.Errorf("stats[%d].Iteration = %d, want monotone 1-based", i, s.Iteration)
		}
		sum := 0
		for _, b := range s.ScoreBuckets {
			if b < 0 {
				t.Errorf("iteration %d: negative bucket in %v", s.Iteration, s.ScoreBuckets)
			}
			sum += b
		}
		if sum != s.Assigned {
			t.Errorf("iteration %d: buckets sum %d != assigned %d", s.Iteration, sum, s.Assigned)
		}
		if got := prevAssigned + s.NewPairs - s.DroppedPairs; got != s.Assigned {
			t.Errorf("iteration %d: prev %d + new %d - dropped %d = %d, want assigned %d",
				s.Iteration, prevAssigned, s.NewPairs, s.DroppedPairs, got, s.Assigned)
		}
		prevAssigned = s.Assigned
	}

	// The final iteration converged: nothing moved relative to the one
	// before, matching the changed-fraction stop criterion.
	last := stats[len(stats)-1]
	if last.ChangedFraction > 0.01 {
		t.Errorf("final iteration changed fraction %v, want converged", last.ChangedFraction)
	}
}

// TestNegativePassNumberedAfterExhaustedLoop runs the fixpoint until it uses
// up MaxIterations without converging; the Equation (14) pass that follows
// must carry the next number, not skip one.
func TestNegativePassNumberedAfterExhaustedLoop(t *testing.T) {
	o1, o2, err := gen.Restaurants(gen.RestaurantsConfig{Seed: 5}).Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	var hooked []int
	res := New(o1, o2, Config{
		MaxIterations:    2,
		Convergence:      -1,
		NegativeEvidence: true,
		OnIteration:      func(it int, a *Aligner) { hooked = append(hooked, it) },
	}).Run()
	var labels []int
	for _, s := range res.Iterations {
		labels = append(labels, s.Iteration)
	}
	want := []int{1, 2, 3}
	if !slices.Equal(labels, want) {
		t.Errorf("IterationStats labels = %v, want %v", labels, want)
	}
	if !slices.Equal(hooked, want) {
		t.Errorf("OnIteration labels = %v, want %v", hooked, want)
	}
}
