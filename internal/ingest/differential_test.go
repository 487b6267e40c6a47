package ingest_test

// Differential acceptance: the streaming parallel pipeline behind
// store.LoadFile and a sequential reference — each file read line by line
// into a store.Builder — must be indistinguishable: identical ontologies
// (dictionary IDs included, since the stream replays exact input order) and
// byte-identical alignment snapshots over the movies and world corpora.
// Wall-clock fields (per-iteration timings, ClassTime) are zeroed before
// the byte comparison; they measure the run, not the alignment.

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/ingest"
	"repro/internal/rdf"
	"repro/internal/store"
)

// writeCorpus serializes a generated dataset to <dir>/<name>.nt files and
// gzips the first one, so the differential covers the .nt.gz path too.
func writeCorpus(t *testing.T, d *gen.Dataset) (path1, path2 string) {
	t.Helper()
	dir := t.TempDir()
	if err := d.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	plain1 := filepath.Join(dir, d.Name1+".nt")
	path1 = plain1 + ".gz"
	src, err := os.Open(plain1)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := os.Create(path1)
	if err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(dst)
	if _, err := io.Copy(zw, src); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	return path1, filepath.Join(dir, d.Name2+".nt")
}

// loadSequential is the reference loader: one file, gunzipped when its
// name ends in .gz, read line by line into a Builder with no pipeline.
func loadSequential(t *testing.T, path string, lits *store.Literals) *store.Ontology {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var r io.Reader = f
	if filepath.Ext(path) == ".gz" {
		zr, err := gzip.NewReader(f)
		if err != nil {
			t.Fatal(err)
		}
		defer zr.Close()
		r = zr
	}
	b := store.NewBuilder(store.BaseName(path), lits, nil)
	if err := b.Load(rdf.NewNTriplesReader(r)); err != nil {
		t.Fatal(err)
	}
	return b.Build()
}

// loadPair loads both corpus files into one shared literal table.
func loadPair(t *testing.T, path1, path2 string, opts ...store.LoadOption) (*store.Ontology, *store.Ontology) {
	t.Helper()
	lits := store.NewLiterals()
	o1, err := store.LoadFile(path1, store.BaseName(path1), lits, nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := store.LoadFile(path2, store.BaseName(path2), lits, nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return o1, o2
}

// assertOntologiesIdentical compares every observable of two ontologies,
// dictionary IDs included: the pipeline's order guarantee means even the
// interned ID spaces must coincide with a sequential load.
func assertOntologiesIdentical(t *testing.T, want, got *store.Ontology) {
	t.Helper()
	if w, g := want.Stats(), got.Stats(); w != g {
		t.Fatalf("stats differ:\n  sequential %+v\n  ingest     %+v", w, g)
	}
	if want.NumResources() != got.NumResources() {
		t.Fatalf("resources: %d vs %d", want.NumResources(), got.NumResources())
	}
	for i := 0; i < want.NumResources(); i++ {
		x := store.Resource(i)
		if want.ResourceKey(x) != got.ResourceKey(x) {
			t.Fatalf("resource %d: key %q vs %q", i, want.ResourceKey(x), got.ResourceKey(x))
		}
		if want.IsClass(x) != got.IsClass(x) {
			t.Fatalf("resource %d (%s): IsClass %v vs %v", i, want.ResourceKey(x), want.IsClass(x), got.IsClass(x))
		}
		we, ge := want.Edges(x), got.Edges(x)
		if len(we) != len(ge) {
			t.Fatalf("resource %d (%s): %d edges vs %d", i, want.ResourceKey(x), len(we), len(ge))
		}
		for j := range we {
			if we[j] != ge[j] {
				t.Fatalf("resource %d edge %d: %+v vs %+v", i, j, we[j], ge[j])
			}
		}
	}
	if want.NumRelations() != got.NumRelations() {
		t.Fatalf("relations: %d vs %d", want.NumRelations(), got.NumRelations())
	}
	for _, r := range want.Relations() {
		if want.RelationName(r) != got.RelationName(r) {
			t.Fatalf("relation %d: name %q vs %q", r, want.RelationName(r), got.RelationName(r))
		}
		if want.Fun(r) != got.Fun(r) {
			t.Fatalf("relation %s: fun %v vs %v", want.RelationName(r), want.Fun(r), got.Fun(r))
		}
		if want.NumStatements(r) != got.NumStatements(r) {
			t.Fatalf("relation %s: %d statements vs %d", want.RelationName(r), want.NumStatements(r), got.NumStatements(r))
		}
	}
	if want.Literals().Len() != got.Literals().Len() {
		t.Fatalf("literals: %d vs %d", want.Literals().Len(), got.Literals().Len())
	}
	for i := 0; i < want.Literals().Len(); i++ {
		if want.Literals().Value(store.Lit(i)) != got.Literals().Value(store.Lit(i)) {
			t.Fatalf("literal %d: %q vs %q", i, want.Literals().Value(store.Lit(i)), got.Literals().Value(store.Lit(i)))
		}
	}
}

// stripTimings zeroes the wall-clock fields of a snapshot in place.
func stripTimings(s *core.ResultSnapshot) {
	for i := range s.Iterations {
		s.Iterations[i].InstanceTime = 0
		s.Iterations[i].RelationTime = 0
	}
	s.ClassTime = 0
}

// runDifferential loads d's files sequentially and through the pipeline
// and compares the results. minBlocks is the fewest default-size blocks
// each file must span, so that ordering across blocks is exercised.
func runDifferential(t *testing.T, d *gen.Dataset, minBlocks int) {
	path1, path2 := writeCorpus(t, d)

	lits := store.NewLiterals()
	seq1, seq2 := loadSequential(t, path1, lits), loadSequential(t, path2, lits)
	// Several workers over multi-block files: blocks finish out of order,
	// the configuration furthest from a sequential read. loads keeps each
	// load's latest progress; a load's first block starts a new entry.
	var loads []ingest.Progress
	ingest1, ingest2 := loadPair(t, path1, path2, store.WithParallelism(4),
		store.WithLoadProgress(func(p ingest.Progress) {
			if p.Blocks == 1 {
				loads = append(loads, p)
			}
			loads[len(loads)-1] = p
		}))
	if len(loads) != 2 {
		t.Fatalf("progress reported for %d loads, want 2", len(loads))
	}
	for i, p := range loads {
		if p.Blocks < minBlocks {
			t.Errorf("file %d spans %d blocks, want at least %d", i+1, p.Blocks, minBlocks)
		}
	}

	assertOntologiesIdentical(t, seq1, ingest1)
	assertOntologiesIdentical(t, seq2, ingest2)

	cfg := core.Config{Workers: 1}
	resSeq, err := core.New(seq1, seq2, cfg).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resIngest, err := core.New(ingest1, ingest2, cfg).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	snapSeq, snapIngest := resSeq.Snapshot(), resIngest.Snapshot()
	stripTimings(snapSeq)
	stripTimings(snapIngest)
	wantBytes, err := snapSeq.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, err := snapIngest.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantBytes, gotBytes) {
		t.Fatalf("alignment snapshots differ: %d vs %d bytes (assignments %d vs %d)",
			len(wantBytes), len(gotBytes), len(snapSeq.Instances), len(snapIngest.Instances))
	}
}

func TestDifferentialMoviesCorpus(t *testing.T) {
	runDifferential(t, gen.Movies(gen.MoviesConfig{Seed: 11, People: 400, Movies: 120}), 1)
}

// TestDifferentialPersonsCorpus runs the align_person corpus (N=500), whose
// KBs of about 0.75 MB each span 12 default 64 KiB blocks, so the order
// across blocks is checked on the input the persons workload loads.
func TestDifferentialPersonsCorpus(t *testing.T) {
	runDifferential(t, gen.Persons(gen.PersonsConfig{N: 500, Seed: 3}), 8)
}

// TestDifferentialWorldCorpus runs the full-size world corpus, whose files
// span 101 and 60 default 64 KiB blocks.
func TestDifferentialWorldCorpus(t *testing.T) {
	runDifferential(t, gen.World(gen.WorldConfig{Seed: 11}), 60)
}
