package paris

// Tests for the context-aware Session API: source loading (paths, readers,
// gzip), the shared-literal-table invariant, cancellation, and progress
// streaming.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/rdf"
)

// The kb1/kb2 documents of paris_test.go serve as the two sides here too.

func writeKB(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSessionAlignFromFiles(t *testing.T) {
	ctx := context.Background()
	s := NewSession()
	o1, err := s.Load(ctx, FromFile(writeKB(t, "kb1.nt", kb1)))
	if err != nil {
		t.Fatal(err)
	}
	if o1.Name() != "kb1" {
		t.Fatalf("derived name = %q, want kb1", o1.Name())
	}
	if _, err := s.Load(ctx, FromFile(writeKB(t, "kb2.nt", kb2))); err != nil {
		t.Fatal(err)
	}
	res, err := s.Align(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != 1 || res.Instances[0].P != 1 {
		t.Fatalf("alignment = %v", res.Instances)
	}
	if s.Ontology1() != o1 || s.Ontology2() == nil {
		t.Fatal("session does not expose its loaded ontologies")
	}
}

func TestSessionLoadFromReader(t *testing.T) {
	ctx := context.Background()
	s := NewSession()
	if _, err := s.Load(ctx, FromReader("left", "nt", strings.NewReader(kb1))); err != nil {
		t.Fatal(err)
	}
	// The leading dot is optional; with it works too.
	if _, err := s.Load(ctx, FromReader("right", ".nt", strings.NewReader(kb2))); err != nil {
		t.Fatal(err)
	}
	res, err := s.Align(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != 1 {
		t.Fatalf("alignment = %v", res.Instances)
	}
}

func TestSessionSourceErrors(t *testing.T) {
	ctx := context.Background()
	s := NewSession()
	if _, err := s.Load(ctx, Source{}); err == nil {
		t.Error("empty source accepted")
	}
	if _, err := s.Load(ctx, FromFile(filepath.Join(t.TempDir(), "absent.nt"))); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := s.Load(ctx, FromReader("x", "rdfxml", strings.NewReader(kb1))); err == nil {
		t.Error("unsupported format accepted")
	}
	// Align before two loads.
	if _, err := s.Align(ctx); !errors.Is(err, ErrNotReady) {
		t.Errorf("Align on empty session = %v, want ErrNotReady", err)
	}
	// A third load is refused.
	for _, doc := range []string{kb1, kb2} {
		if _, err := s.Load(ctx, FromReader("kb", "nt", strings.NewReader(doc))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Load(ctx, FromReader("extra", "nt", strings.NewReader(kb1))); !errors.Is(err, ErrTooManySources) {
		t.Errorf("third load = %v, want ErrTooManySources", err)
	}
}

func TestSessionLoadCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewSession()
	if _, err := s.Load(ctx, FromReader("kb", "nt", strings.NewReader(kb1))); !errors.Is(err, context.Canceled) {
		t.Fatalf("Load under canceled ctx = %v, want context.Canceled", err)
	}
}

func TestSessionAlignCanceled(t *testing.T) {
	ctx := context.Background()
	s := NewSession()
	for _, doc := range []string{kb1, kb2} {
		if _, err := s.Load(ctx, FromReader("kb", "nt", strings.NewReader(doc))); err != nil {
			t.Fatal(err)
		}
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := s.Align(canceled); !errors.Is(err, context.Canceled) {
		t.Fatalf("Align under canceled ctx = %v, want context.Canceled", err)
	}
	// The session is still usable with a live context.
	if _, err := s.Align(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestSessionUseAdoptsLiteralTable(t *testing.T) {
	// Ontologies built outside the session align through Use without
	// pre-arranging the session's literal table.
	lits := NewLiterals()
	build := func(name, doc string) *Ontology {
		t.Helper()
		triples, err := ParseNTriples(doc)
		if err != nil {
			t.Fatal(err)
		}
		b := NewBuilder(name, lits, nil)
		if err := b.AddAll(triples); err != nil {
			t.Fatal(err)
		}
		return b.Build()
	}
	o1, o2 := build("o1", kb1), build("o2", kb2)
	s := NewSession()
	if err := s.Use(o1); err != nil {
		t.Fatal(err)
	}
	if err := s.Use(o2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Align(context.Background()); err != nil {
		t.Fatal(err)
	}

	// A foreign literal table is a typed error.
	foreign := NewBuilder("o3", NewLiterals(), nil).Build()
	s2 := NewSession()
	if err := s2.Use(o1); err != nil {
		t.Fatal(err)
	}
	var lte *LiteralTableError
	if err := s2.Use(foreign); !errors.As(err, &lte) {
		t.Fatalf("Use with foreign table = %v, want *LiteralTableError", err)
	}
}

func TestSessionProgressStreaming(t *testing.T) {
	var progressed []int
	var viaConfig []int
	s := NewSession(
		WithProgress(func(st IterationStats) { progressed = append(progressed, st.Iteration) }),
		WithConfig(Config{
			MaxIterations: 3,
			Convergence:   -1,
			OnIteration:   func(it int, _ *Aligner) { viaConfig = append(viaConfig, it) },
		}),
	)
	ctx := context.Background()
	for _, doc := range []string{kb1, kb2} {
		if _, err := s.Load(ctx, FromReader("kb", "nt", strings.NewReader(doc))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Align(ctx); err != nil {
		t.Fatal(err)
	}
	if len(progressed) != 3 || progressed[0] != 1 || progressed[2] != 3 {
		t.Fatalf("progress iterations = %v, want [1 2 3]", progressed)
	}
	if len(viaConfig) != 3 {
		t.Fatalf("Config.OnIteration saw %v, want 3 calls (composed with WithProgress)", viaConfig)
	}
}

func TestSessionNormalizerAppliesToBothSides(t *testing.T) {
	// Literals differing only in case and punctuation align under the
	// session-wide AlphaNum normalizer.
	left := `<http://a/x> <http://a/email> "X @ EXAMPLE.COM" .` + "\n"
	right := `<http://b/x> <http://b/mail> "x@example.com" .` + "\n"
	s := NewSession(WithNormalizer(AlphaNum))
	ctx := context.Background()
	for i, doc := range []string{left, right} {
		if _, err := s.Load(ctx, FromReader("kb", "nt", strings.NewReader(doc))); err != nil {
			t.Fatal(i, err)
		}
	}
	res, err := s.Align(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != 1 {
		t.Fatalf("normalized alignment = %v", res.Instances)
	}
}

func TestAlignContext(t *testing.T) {
	lits := NewLiterals()
	build := func(name, doc string) *Ontology {
		t.Helper()
		triples, err := ParseNTriples(doc)
		if err != nil {
			t.Fatal(err)
		}
		b := NewBuilder(name, lits, nil)
		if err := b.AddAll(triples); err != nil {
			t.Fatal(err)
		}
		return b.Build()
	}
	o1, o2 := build("o1", kb1), build("o2", kb2)
	res, err := AlignContext(context.Background(), o1, o2, Config{})
	if err != nil || len(res.Instances) != 1 {
		t.Fatalf("AlignContext = %v, %v", res, err)
	}
	// Mismatched tables: typed error, no panic.
	foreign := NewBuilder("o3", NewLiterals(), nil).Build()
	var lte *LiteralTableError
	if _, err := AlignContext(context.Background(), o1, foreign, Config{}); !errors.As(err, &lte) {
		t.Fatalf("AlignContext mismatch = %v, want *LiteralTableError", err)
	}
}

// TestSessionRealign: after an Align, Realign ingests matching deltas into
// both sides and warm-starts from the previous result, aligning the new pair
// without losing the old one; an empty delta is a no-op that re-converges in
// one pass.
func TestSessionRealign(t *testing.T) {
	ctx := context.Background()
	s := NewSession()
	if _, err := s.Load(ctx, FromFile(writeKB(t, "kb1.nt", kb1))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(ctx, FromFile(writeKB(t, "kb2.nt", kb2))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Align(ctx); err != nil {
		t.Fatal(err)
	}

	add1, err := ParseNTriples(`<http://a.org/cash> <http://a.org/email> "johnny@cash.com" .`)
	if err != nil {
		t.Fatal(err)
	}
	add2, err := ParseNTriples(`<http://b.org/johnny> <http://b.org/mail> "johnny@cash.com" .`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Realign(ctx, Delta{Add1: add1, Add2: add2})
	if err != nil {
		t.Fatal(err)
	}
	m := res.InstanceMap()
	if m["<http://a.org/elvis>"] != "<http://b.org/presley>" {
		t.Fatalf("original pair lost after realign: %v", m)
	}
	if m["<http://a.org/cash>"] != "<http://b.org/johnny>" {
		t.Fatalf("delta pair not aligned: %v", m)
	}

	// Empty delta: same assignments again, single warm pass.
	res2, err := s.Realign(ctx, Delta{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Iterations) != 1 {
		t.Fatalf("empty-delta realign took %d passes, want 1", len(res2.Iterations))
	}
	m2 := res2.InstanceMap()
	if m2["<http://a.org/cash>"] != "<http://b.org/johnny>" || len(m2) != len(m) {
		t.Fatalf("empty-delta realign moved assignments: %v vs %v", m2, m)
	}
}

// TestSessionRealignWithoutAlign: Realign on a never-aligned session is a
// cold run over the extended ontologies.
func TestSessionRealignWithoutAlign(t *testing.T) {
	ctx := context.Background()
	s := NewSession()
	if _, err := s.Load(ctx, FromFile(writeKB(t, "kb1.nt", kb1))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(ctx, FromFile(writeKB(t, "kb2.nt", kb2))); err != nil {
		t.Fatal(err)
	}
	res, err := s.Realign(ctx, Delta{})
	if err != nil {
		t.Fatal(err)
	}
	if res.InstanceMap()["<http://a.org/elvis>"] != "<http://b.org/presley>" {
		t.Fatalf("cold realign missed the pair: %v", res.InstanceMap())
	}

	// Not ready without two ontologies.
	if _, err := NewSession().Realign(ctx, Delta{}); !errors.Is(err, ErrNotReady) {
		t.Fatalf("Realign on empty session = %v, want ErrNotReady", err)
	}
}

// TestSessionLoadProgressAndIngestOptions: session loads run through the
// streaming pipeline — WithLoadProgress observes per-block counters, the
// ingest knobs are accepted, and the result matches a sequential reference
// built by reading each document line by line into a Builder.
func TestSessionLoadProgressAndIngestOptions(t *testing.T) {
	ctx := context.Background()
	var events []LoadProgress
	s := NewSession(
		WithLoadProgress(func(p LoadProgress) { events = append(events, p) }),
		WithIngestWorkers(2),
	)
	if _, err := s.Load(ctx, FromReader("left", "nt", strings.NewReader(kb1))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(ctx, FromReader("right", "nt", strings.NewReader(kb2))); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("WithLoadProgress saw no blocks")
	}
	last := events[len(events)-1]
	if last.Triples == 0 || last.Blocks == 0 {
		t.Fatalf("final load progress = %+v", last)
	}
	res, err := s.Align(ctx)
	if err != nil {
		t.Fatal(err)
	}

	single := NewSession()
	lits := NewLiterals()
	for _, kb := range []struct{ name, doc string }{{"left", kb1}, {"right", kb2}} {
		b := NewBuilder(kb.name, lits, nil)
		if err := b.Load(rdf.NewNTriplesReader(strings.NewReader(kb.doc))); err != nil {
			t.Fatal(err)
		}
		if err := single.Use(b.Build()); err != nil {
			t.Fatal(err)
		}
	}
	resSingle, err := single.Align(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != len(resSingle.Instances) {
		t.Fatalf("pipeline vs sequential: %d vs %d assignments", len(res.Instances), len(resSingle.Instances))
	}
}
