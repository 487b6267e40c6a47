// Package paris is a from-scratch Go implementation of PARIS — Probabilistic
// Alignment of Relations, Instances, and Schema (Suchanek, Abiteboul,
// Senellart; PVLDB 5(3), 2011).
//
// PARIS aligns two RDFS ontologies holistically: it computes equivalence
// probabilities between instances, sub-relation probabilities between
// relations (including inverses), and subclass probabilities between
// classes, letting instance and schema evidence reinforce each other in a
// fixpoint, with no training data and no dataset-specific tuning.
//
// Quick start — a Session owns the shared literal table, loads two
// knowledge bases (file paths or readers, gzip transparent), and runs the
// fixpoint under a context, so callers get cancellation, deadlines, and
// errors instead of panics:
//
//	s := paris.NewSession()
//	o1, err := s.Load(ctx, paris.FromFile("kb1.nt"))
//	o2, err := s.Load(ctx, paris.FromFile("kb2.nt.gz"))
//	res, err := s.Align(ctx)
//	for _, a := range res.Instances {
//	    fmt.Println(o1.ResourceKey(a.X1), "≡", o2.ResourceKey(a.X2), a.P)
//	}
//
// Sessions take functional options: WithConfig for the alignment
// parameters, WithNormalizer (for example paris.AlphaNum) to align under
// normalized literals per Section 5.3 of the paper, WithProgress to stream
// per-iteration statistics from a long run.
//
// The two ontologies of an alignment must share one literal table so that
// the clamped literal-equality function of Section 5.3 is an identity
// check. A Session maintains that invariant itself; ontologies loaded with
// LoadFile must be given the same Literals, and AlignContext reports a
// mismatch as a *LiteralTableError.
package paris

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/literal"
	"repro/internal/rdf"
	"repro/internal/server"
	"repro/internal/store"
)

// Core data model types, re-exported from the implementation packages.
type (
	// Ontology is a frozen, indexed RDFS ontology (see store.Ontology).
	Ontology = store.Ontology
	// Builder accumulates triples and freezes them into an Ontology.
	Builder = store.Builder
	// Literals is a literal dictionary shared between two ontologies.
	Literals = store.Literals
	// Normalizer canonicalizes literals before interning.
	Normalizer = store.Normalizer
	// Resource identifies an interned resource within one ontology.
	Resource = store.Resource
	// Relation identifies an interned relation (inverses included).
	Relation = store.Relation
	// Term is one RDF term (IRI, blank node, or literal).
	Term = rdf.Term
	// Triple is one RDF statement.
	Triple = rdf.Triple

	// Config controls an alignment run; the zero value uses the paper's
	// defaults (θ = 0.1, harmonic-mean functionality, positive evidence).
	Config = core.Config
	// Aligner runs the PARIS fixpoint step by step.
	Aligner = core.Aligner
	// Result is the outcome of an alignment.
	Result = core.Result
	// Assignment is one maximal instance alignment.
	Assignment = core.Assignment
	// RelAlignment is one directed sub-relation score.
	RelAlignment = core.RelAlignment
	// ClassAlignment is one directed subclass score.
	ClassAlignment = core.ClassAlignment
	// IterationStats describes one fixpoint iteration.
	IterationStats = core.IterationStats

	// Gold is a gold-standard entity mapping for evaluation.
	Gold = eval.Gold
	// Metrics is a precision/recall/F-measure triple.
	Metrics = eval.Metrics

	// ResultSnapshot is the portable, ontology-independent form of a
	// Result, serializable with MarshalBinary/UnmarshalBinary.
	ResultSnapshot = core.ResultSnapshot
	// SnapshotAssignment is one instance assignment by resource key.
	SnapshotAssignment = core.SnapshotAssignment
	// SnapshotRelation is one directed sub-relation score by name.
	SnapshotRelation = core.SnapshotRelation
	// SnapshotClass is one directed subclass score by class key.
	SnapshotClass = core.SnapshotClass

	// Server is the alignment service behind cmd/parisd: async jobs,
	// persistent snapshots, and a concurrent sameAs lookup API.
	Server = server.Server
	// ServerOptions configures a Server.
	ServerOptions = server.Options
	// JobRequest is the body of POST /v1/jobs.
	JobRequest = server.JobRequest
	// DeltaRequest is the body of POST /v1/deltas (incremental
	// re-alignment against a published snapshot).
	DeltaRequest = server.DeltaRequest
	// SnapshotInfo is the served metadata of one snapshot version,
	// including the lineage of incrementally derived snapshots.
	SnapshotInfo = server.SnapshotInfo
	// Job is the externally visible record of one alignment job.
	Job = server.Job
	// JobState is the lifecycle state of an alignment job.
	JobState = server.JobState
	// Match is one direction-resolved sameAs answer.
	Match = server.Match
)

// Job lifecycle states, re-exported from the service.
const (
	JobQueued  = server.JobQueued
	JobRunning = server.JobRunning
	JobDone    = server.JobDone
	JobFailed  = server.JobFailed
)

// Literal normalizers (Section 5.3 of the paper).
var (
	// Identity compares lexical forms verbatim (the paper's default).
	Identity Normalizer = literal.Identity
	// AlphaNum lowercases and strips non-alphanumeric characters.
	AlphaNum Normalizer = literal.AlphaNum
	// Numeric canonicalizes numeric lexical forms.
	Numeric Normalizer = literal.Numeric
)

// NewLiterals returns an empty literal table to share across the two
// ontologies of an alignment.
func NewLiterals() *Literals { return store.NewLiterals() }

// NewBuilder returns a builder for an ontology named name. All builders of
// one alignment must share the same lits. A nil norm means Identity.
func NewBuilder(name string, lits *Literals, norm Normalizer) *Builder {
	return store.NewBuilder(name, lits, norm)
}

// NewGold returns an empty gold standard.
func NewGold() *Gold { return eval.NewGold() }

// NewServer starts an alignment service over a persistent state directory,
// recovering all previously completed alignments. Expose its Handler over
// HTTP (as cmd/parisd does) and Close it to flush state.
func NewServer(opts ServerOptions) (*Server, error) { return server.New(opts) }

// MaxRelAlignments reduces a directed relation-alignment list to the
// maximally assigned super-relation per sub-relation.
func MaxRelAlignments(as []RelAlignment) []RelAlignment {
	return core.MaxRelAlignments(as)
}

// FilterClassAlignments keeps class alignments with probability at least
// threshold.
func FilterClassAlignments(as []ClassAlignment, threshold float64) []ClassAlignment {
	return core.FilterClassAlignments(as, threshold)
}

// LoadFile parses an RDF file into a frozen ontology. The format is chosen
// by extension: .nt/.ntriples for N-Triples, .ttl/.turtle for Turtle; a
// trailing .gz (kb.nt.gz) is decompressed transparently. name is the
// ontology's display name; lits must be shared across the alignment; a nil
// norm means Identity.
func LoadFile(path, name string, lits *Literals, norm Normalizer) (*Ontology, error) {
	return store.LoadFile(path, name, lits, norm)
}

// ParseNTriples parses a complete N-Triples document held in a string.
func ParseNTriples(doc string) ([]Triple, error) { return rdf.ParseNTriples(doc) }

// ParseTurtle parses a complete Turtle document held in a string.
func ParseTurtle(doc string) ([]Triple, error) { return rdf.ParseTurtle(doc) }

// LoadGoldTSV reads a tab-separated gold standard (ontology-1 key, tab,
// ontology-2 key per line) as written by the dataset generators. Files
// exported from Windows tools load too: a UTF-8 BOM, CRLF line endings, and
// whitespace padding around either key are all stripped.
func LoadGoldTSV(path string) (*Gold, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc := strings.TrimPrefix(string(data), "\ufeff")
	g := eval.NewGold()
	for i, line := range strings.Split(doc, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.SplitN(line, "\t", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("paris: gold line %d: want two tab-separated keys", i+1)
		}
		// Both keys are non-empty here: the line-level TrimSpace means a
		// whitespace-only side loses its tab and fails the split above.
		k1, k2 := strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1])
		if err := g.Add(k1, k2); err != nil {
			return nil, fmt.Errorf("paris: gold line %d: %w", i+1, err)
		}
	}
	return g, nil
}
