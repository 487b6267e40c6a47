package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/literal"
	"repro/internal/store"
)

// TestNewCheckedLiteralTableError verifies the literal-table invariant is a
// typed error under NewChecked and still a panic under the deprecated New.
func TestNewCheckedLiteralTableError(t *testing.T) {
	o1, _ := pair(t, o1Email, o2Email)
	// Build the second side against its own, separate literal table.
	_, o2 := pair(t, o1Email, o2Email)

	_, err := NewChecked(o1, o2, Config{})
	var lte *LiteralTableError
	if !errors.As(err, &lte) {
		t.Fatalf("NewChecked error = %v, want *LiteralTableError", err)
	}
	if lte.O1 != "o1" || lte.O2 != "o2" {
		t.Fatalf("error names = %q, %q", lte.O1, lte.O2)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("deprecated New did not panic on mismatched literal tables")
		}
	}()
	New(o1, o2, Config{})
}

// TestRunContextCancelBeforeStart: an already-canceled context aborts
// before any pass runs.
func TestRunContextCancelBeforeStart(t *testing.T) {
	o1, o2 := pair(t, o1Email, o2Email)
	a, err := NewChecked(o1, o2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := a.RunContext(ctx)
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, %v; want nil, context.Canceled", res, err)
	}
	if n := len(a.Iterations()); n != 0 {
		t.Fatalf("%d iterations ran under a canceled context", n)
	}
}

// TestRunContextCancelMidFixpoint cancels from the OnIteration callback of
// iteration 2 and asserts the fixpoint stops within one pass: no third
// iteration is recorded, no result (and hence no subclass pass) is
// produced, and the error is the context's.
func TestRunContextCancelMidFixpoint(t *testing.T) {
	o1, o2 := pair(t, o1Email, o2Email)
	ctx, cancel := context.WithCancel(context.Background())
	cfg := Config{
		MaxIterations: 10,
		Convergence:   -1, // never converge early: only cancellation stops it
		OnIteration: func(it int, _ *Aligner) {
			if it == 2 {
				cancel()
			}
		},
	}
	a, err := NewChecked(o1, o2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.RunContext(ctx)
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, %v; want nil, context.Canceled", res, err)
	}
	if n := len(a.Iterations()); n != 2 {
		t.Fatalf("iterations after cancel at 2 = %d, want exactly 2", n)
	}
	// The aligner's intermediate state remains inspectable.
	if len(a.Assignments()) == 0 {
		t.Fatal("no assignments inspectable after cancellation")
	}
}

// TestRunContextDeadline: an expired deadline is reported as
// DeadlineExceeded, the error callers distinguish from explicit
// cancellation.
func TestRunContextDeadline(t *testing.T) {
	o1, o2 := pair(t, o1Email, o2Email)
	a, err := NewChecked(o1, o2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := a.RunContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunContext error = %v, want DeadlineExceeded", err)
	}
}

// TestStepContextCanceledBeforeStart: the entry check aborts a step whose
// context is already canceled before any pass runs.
func TestStepContextCanceledBeforeStart(t *testing.T) {
	o1, o2 := pair(t, o1Email, o2Email)
	a, err := NewChecked(o1, o2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stats, err := a.StepContext(ctx, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("StepContext error = %v, want context.Canceled", err)
	}
	if stats.InstanceTime != 0 {
		t.Fatalf("instance pass ran under a pre-canceled context: %+v", stats)
	}
}

// cancelOnMatch cancels its context the first time the instance pass
// consults the literal matcher — that is, while the instance pass is
// running — so the check between the instance and sub-relation passes is
// the one that fires.
type cancelOnMatch struct {
	inner  literal.Matcher
	cancel context.CancelFunc
}

func (m cancelOnMatch) AppendCandidates(dst []literal.Weighted, l store.Lit) []literal.Weighted {
	m.cancel()
	return m.inner.AppendCandidates(dst, l)
}

// TestStepContextCancelBetweenPasses: a cancellation landing during the
// instance pass lets that pass complete, then aborts before the
// sub-relation pass — the partially computed iteration's stats come back
// with the error, no relation scores exist, and no iteration is recorded.
func TestStepContextCancelBetweenPasses(t *testing.T) {
	o1, o2 := pair(t, o1Email, o2Email)
	ctx, cancel := context.WithCancel(context.Background())
	cfg := Config{
		Workers:    1,
		MatcherTo2: cancelOnMatch{literal.IdentityMatcher{Target: o2}, cancel},
	}
	a, err := NewChecked(o1, o2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := a.StepContext(ctx, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("StepContext error = %v, want context.Canceled", err)
	}
	if stats.Iteration != 1 || stats.InstanceTime == 0 {
		t.Fatalf("aborted step stats = %+v, want a completed instance pass", stats)
	}
	if stats.RelationTime != 0 {
		t.Fatalf("sub-relation pass ran after cancellation: %+v", stats)
	}
	if to2, to1 := a.RelationAlignments(); to2 != nil || to1 != nil {
		t.Fatalf("relation scores exist after between-pass abort: %v, %v", to2, to1)
	}
	if n := len(a.Iterations()); n != 0 {
		t.Fatalf("aborted step recorded %d iterations, want 0", n)
	}
	// The instance pass did complete: its assignments are inspectable.
	if len(a.Assignments()) == 0 {
		t.Fatal("no assignments after the completed instance pass")
	}
}

// TestRunContextBackgroundMatchesRun: RunContext under a background
// context is exactly Run.
func TestRunContextBackgroundMatchesRun(t *testing.T) {
	o1, o2 := pair(t, o1Email, o2Email)
	a1, _ := NewChecked(o1, o2, Config{})
	res1, err := a1.RunContext(context.Background())
	if err != nil || res1 == nil {
		t.Fatalf("RunContext = %v, %v", res1, err)
	}
	a2, _ := NewChecked(o1, o2, Config{})
	res2 := a2.Run()
	if len(res1.Instances) != len(res2.Instances) ||
		len(res1.Relations12) != len(res2.Relations12) ||
		len(res1.Classes12) != len(res2.Classes12) {
		t.Fatalf("RunContext diverges from Run: %v vs %v", res1, res2)
	}
}
