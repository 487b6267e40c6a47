package paris

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
)

const kb1 = `
<http://a.org/elvis> <http://a.org/email> "elvis@graceland.com" .
<http://a.org/elvis> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://a.org/singer> .
`

const kb2 = `
<http://b.org/presley> <http://b.org/mail> "elvis@graceland.com" .
<http://b.org/presley> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://b.org/person> .
`

func writeFiles(t *testing.T) (string, string) {
	t.Helper()
	dir := t.TempDir()
	p1 := filepath.Join(dir, "kb1.nt")
	p2 := filepath.Join(dir, "kb2.nt")
	if err := os.WriteFile(p1, []byte(kb1), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p2, []byte(kb2), 0o644); err != nil {
		t.Fatal(err)
	}
	return p1, p2
}

func TestQuickstartFlow(t *testing.T) {
	p1, p2 := writeFiles(t)
	lits := NewLiterals()
	o1, err := LoadFile(p1, "kb1", lits, nil)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := LoadFile(p2, "kb2", lits, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := AlignContext(context.Background(), o1, o2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != 1 {
		t.Fatalf("instances = %v", res.Instances)
	}
	a := res.Instances[0]
	if o1.ResourceKey(a.X1) != "<http://a.org/elvis>" ||
		o2.ResourceKey(a.X2) != "<http://b.org/presley>" {
		t.Fatalf("wrong alignment: %v", a)
	}
	if a.P != 1 {
		t.Fatalf("converged probability = %v, want 1", a.P)
	}
	// Class alignment must relate singer and person.
	if len(res.Classes12) == 0 {
		t.Fatal("no class alignments")
	}
	rels := MaxRelAlignments(res.Relations12)
	if len(rels) == 0 {
		t.Fatal("no relation alignments")
	}
}

func TestLoadFileTurtle(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "kb.ttl")
	doc := "@prefix ex: <http://ex.org/> .\nex:a ex:p ex:b .\n"
	if err := os.WriteFile(p, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	o, err := LoadFile(p, "kb", NewLiterals(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.NumFacts() != 1 {
		t.Fatalf("facts = %d", o.NumFacts())
	}
}

func TestLoadFileErrors(t *testing.T) {
	if _, err := LoadFile("/nonexistent/x.nt", "x", NewLiterals(), nil); err == nil {
		t.Fatal("missing file accepted")
	}
	dir := t.TempDir()
	p := filepath.Join(dir, "kb.xyz")
	os.WriteFile(p, []byte(""), 0o644)
	if _, err := LoadFile(p, "x", NewLiterals(), nil); err == nil ||
		!strings.Contains(err.Error(), "unsupported") {
		t.Fatalf("unknown extension: %v", err)
	}
}

func TestNormalizersExported(t *testing.T) {
	lit := Term{Kind: 2, Value: "A-B c"}
	if AlphaNum(lit) != "abc" {
		t.Fatalf("AlphaNum = %q", AlphaNum(lit))
	}
	if Identity(lit) != "A-B c" {
		t.Fatalf("Identity = %q", Identity(lit))
	}
	if Numeric(Term{Kind: 2, Value: "1.50"}) != "1.5" {
		t.Fatal("Numeric broken")
	}
}

func TestLoadGoldTSV(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "gold.tsv")
	content := "# comment\n<a>\t<x>\n<b>\t<y>\n\n"
	os.WriteFile(p, []byte(content), 0o644)
	g, err := LoadGoldTSV(p)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 {
		t.Fatalf("gold size = %d", g.Len())
	}
	bad := filepath.Join(dir, "bad.tsv")
	os.WriteFile(bad, []byte("no-tab-line\n"), 0o644)
	if _, err := LoadGoldTSV(bad); err == nil {
		t.Fatal("malformed gold accepted")
	}
	conflict := filepath.Join(dir, "conflict.tsv")
	os.WriteFile(conflict, []byte("<a>\t<x>\n<a>\t<y>\n"), 0o644)
	if _, err := LoadGoldTSV(conflict); err == nil {
		t.Fatal("conflicting gold accepted")
	}
}

// End-to-end: generate a corpus, write it to disk, load through the public
// API, align, and evaluate — the full pipeline a downstream user runs.
func TestEndToEndFilePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline")
	}
	dir := t.TempDir()
	d := gen.Persons(gen.PersonsConfig{N: 60, Seed: 5})
	if err := d.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	lits := NewLiterals()
	o1, err := LoadFile(filepath.Join(dir, "person1.nt"), "person1", lits, nil)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := LoadFile(filepath.Join(dir, "person2.nt"), "person2", lits, nil)
	if err != nil {
		t.Fatal(err)
	}
	gold, err := LoadGoldTSV(filepath.Join(dir, "gold.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := AlignContext(context.Background(), o1, o2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := gold.Evaluate(res.InstanceMap())
	if m.F1 < 0.99 {
		t.Fatalf("pipeline quality degraded: %s", m)
	}
}

func TestNewAlignerStepwise(t *testing.T) {
	p1, p2 := writeFiles(t)
	ctx := context.Background()
	s := NewSession()
	for _, p := range []string{p1, p2} {
		if _, err := s.Load(ctx, FromFile(p)); err != nil {
			t.Fatal(err)
		}
	}
	a, err := s.Aligner()
	if err != nil {
		t.Fatal(err)
	}
	s1 := a.Step(1)
	if s1.Assigned != 1 {
		t.Fatalf("step 1 assigned = %d", s1.Assigned)
	}
	s2 := a.Step(2)
	if s2.ChangedFraction != 0 {
		t.Fatalf("step 2 changed = %v", s2.ChangedFraction)
	}
	if len(a.Iterations()) != 2 {
		t.Fatal("iteration log wrong")
	}
}

func TestFilterClassAlignmentsExported(t *testing.T) {
	in := []ClassAlignment{{P: 0.9}, {P: 0.1}}
	if got := FilterClassAlignments(in, 0.5); len(got) != 1 {
		t.Fatalf("filtered = %v", got)
	}
}
