package paris

import (
	"context"
	"errors"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/incremental"
	"repro/internal/ingest"
	"repro/internal/store"
)

// Session errors.
var (
	// ErrTooManySources is returned by Session.Load and Session.Use when
	// the session already holds two ontologies.
	ErrTooManySources = errors.New("paris: session already holds two ontologies")
	// ErrNotReady is returned by Session.Align before two ontologies have
	// been loaded.
	ErrNotReady = errors.New("paris: session needs two loaded ontologies to align")
)

// LiteralTableError reports two ontologies that do not share a literal
// table — the invariant behind the paper's clamped literal equality
// (Section 5.3). Session.Use returns it; the deprecated free functions
// panic with its message instead.
type LiteralTableError = core.LiteralTableError

// Source describes one knowledge-base input for Session.Load: either a
// file path (FromFile) or an arbitrary reader (FromReader).
type Source struct {
	path   string
	reader io.Reader
	name   string
	format string
}

// FromFile names an RDF file to load. The format is chosen by extension
// (.nt/.ntriples, .ttl/.turtle, optionally .gz-compressed) and the
// ontology's display name is derived from the base name, like LoadFile.
func FromFile(path string) Source {
	return Source{path: path, name: store.BaseName(path)}
}

// FromReader wraps an RDF stream. name is the ontology's display name;
// format selects the parser like a file extension (".nt", ".ttl",
// ".nt.gz", …; the leading dot may be omitted). The session does not close
// r.
func FromReader(name, format string, r io.Reader) Source {
	if format != "" && !strings.HasPrefix(format, ".") {
		format = "." + format
	}
	return Source{reader: r, name: name, format: format}
}

// Named returns a copy of the source with the ontology display name
// overridden.
func (s Source) Named(name string) Source {
	s.name = name
	return s
}

// Session is the context-aware alignment API: it owns the shared literal
// table, loads up to two ontologies, and runs the PARIS fixpoint with
// cancellation, progress streaming, and errors instead of panics.
//
//	s := paris.NewSession(paris.WithNormalizer(paris.AlphaNum))
//	if _, err := s.Load(ctx, paris.FromFile("kb1.nt")); err != nil { … }
//	if _, err := s.Load(ctx, paris.FromFile("kb2.nt.gz")); err != nil { … }
//	res, err := s.Align(ctx)
//
// A Session is not safe for concurrent use; run concurrent alignments in
// separate sessions.
type Session struct {
	cfg          Config
	norm         Normalizer
	progress     func(IterationStats)
	loadProgress func(LoadProgress)
	ingestWork   int
	lits         *Literals
	litsSet      bool // lits pinned by WithLiterals (or adopted by the first Use)
	ontos        []*Ontology

	// last is the most recent completed Align or Realign result; Realign
	// snapshots it lazily to warm-start, so Align pays nothing for
	// sessions that never realign.
	last *Result
}

// SessionOption configures a Session at construction.
type SessionOption func(*Session)

// WithConfig sets the alignment configuration (the zero Config is the
// paper's defaults).
func WithConfig(cfg Config) SessionOption {
	return func(s *Session) { s.cfg = cfg }
}

// WithNormalizer applies a literal normalizer (for example AlphaNum) to
// every ontology the session loads — both sides automatically normalize
// identically, the invariant the free functions left to the caller.
func WithNormalizer(norm Normalizer) SessionOption {
	return func(s *Session) { s.norm = norm }
}

// WithProgress streams one IterationStats per completed fixpoint iteration
// during Align, on the Align goroutine. It composes with (and runs before)
// any Config.OnIteration callback.
func WithProgress(fn func(IterationStats)) SessionOption {
	return func(s *Session) { s.progress = fn }
}

// LoadProgress is the cumulative per-block state of a streaming load:
// consumed blocks and bytes, and parsed and skipped triples (see
// internal/ingest).
type LoadProgress = ingest.Progress

// WithLoadProgress streams the cumulative ingest counters after every
// parsed block during Session.Load — the load-phase sibling of
// WithProgress, which streams per-iteration fixpoint statistics during
// Align. Calls are serialized, on the goroutine that called Load.
func WithLoadProgress(fn func(LoadProgress)) SessionOption {
	return func(s *Session) { s.loadProgress = fn }
}

// WithIngestWorkers sets the parse parallelism of streaming loads (default
// min(GOMAXPROCS, 8)).
func WithIngestWorkers(n int) SessionOption {
	return func(s *Session) { s.ingestWork = n }
}

// WithLiterals makes the session intern into an existing literal table
// instead of a fresh one, for interop with ontologies built directly
// through NewBuilder.
func WithLiterals(lits *Literals) SessionOption {
	return func(s *Session) { s.lits, s.litsSet = lits, true }
}

// NewSession returns an empty alignment session holding a fresh shared
// literal table.
func NewSession(opts ...SessionOption) *Session {
	s := &Session{lits: store.NewLiterals()}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Load parses one knowledge base into the session (the first call loads
// ontology 1, the second ontology 2) and returns the frozen ontology.
// N-Triples sources load through the streaming parallel pipeline
// (internal/ingest): blocks parse in parallel and feed the ontology builder
// in input order, so memory holds a few blocks per parser rather than the
// dump, with per-block progress through WithLoadProgress. The context
// cancels a long load per block, so multi-GB dumps do not have to parse to
// completion after the caller has given up.
func (s *Session) Load(ctx context.Context, src Source) (*Ontology, error) {
	if len(s.ontos) >= 2 {
		return nil, ErrTooManySources
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var r io.Reader
	format := src.format
	if src.path != "" {
		f, err := os.Open(src.path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r, format = f, src.path
	} else if src.reader != nil {
		r = src.reader
	} else {
		return nil, errors.New("paris: empty source (use FromFile or FromReader)")
	}
	o, err := store.LoadReaderContext(ctx, r, format, src.name, s.lits, s.norm,
		store.WithParallelism(s.ingestWork), store.WithLoadProgress(s.loadProgress))
	if err != nil {
		return nil, err
	}
	s.ontos = append(s.ontos, o)
	return o, nil
}

// Use adopts an already-built ontology (for example from a Builder or a
// dataset generator) as the session's next side. The ontology must share
// the session's literal table; the first Use of a fresh session adopts the
// ontology's table instead, so a pair built outside the session aligns
// without ceremony. A mismatch is reported as a *LiteralTableError.
func (s *Session) Use(o *Ontology) error {
	if len(s.ontos) >= 2 {
		return ErrTooManySources
	}
	if !s.litsSet && len(s.ontos) == 0 {
		s.lits, s.litsSet = o.Literals(), true
	}
	if o.Literals() != s.lits {
		// Name the conflicting side: the first loaded ontology, or the
		// table installed by WithLiterals when nothing is loaded yet.
		name1 := "session literal table"
		if len(s.ontos) > 0 {
			name1 = s.ontos[0].Name()
		}
		return &LiteralTableError{O1: name1, O2: o.Name()}
	}
	s.ontos = append(s.ontos, o)
	return nil
}

// Ontology1 returns the first loaded ontology, or nil.
func (s *Session) Ontology1() *Ontology { return s.ontoAt(0) }

// Ontology2 returns the second loaded ontology, or nil.
func (s *Session) Ontology2() *Ontology { return s.ontoAt(1) }

func (s *Session) ontoAt(i int) *Ontology {
	if i < len(s.ontos) {
		return s.ontos[i]
	}
	return nil
}

// Align runs the full PARIS fixpoint over the two loaded ontologies. The
// context is checked between every pass (instance, sub-relation, subclass),
// so cancellation or a deadline aborts the run within one pass; Align then
// returns the context's error and no result. A completed Align records its
// result as the warm-start state for Realign.
func (s *Session) Align(ctx context.Context) (*Result, error) {
	a, err := s.Aligner()
	if err != nil {
		return nil, err
	}
	res, err := a.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	s.last = res
	return res, nil
}

// Delta is a batch of triple additions for Session.Realign: Add1 extends the
// first loaded ontology, Add2 the second. Deletions are not supported.
type Delta struct {
	Add1, Add2 []Triple
}

// Realign ingests the delta into the session's ontologies in place and
// re-runs the fixpoint warm-started from the last Align or Realign result,
// so a small delta converges in a fraction of the passes a fresh Align
// needs. Without a prior result the run is a cold Align over the extended
// ontologies. Schema additions (rdfs:subClassOf, rdfs:subPropertyOf) are
// rejected; rebuild a new session for those.
//
// On success the result becomes the warm-start state for the next Realign.
// On failure the ontologies may hold a partially applied delta and the
// session keeps its previous warm-start state.
func (s *Session) Realign(ctx context.Context, d Delta) (*Result, error) {
	if len(s.ontos) != 2 {
		return nil, ErrNotReady
	}
	// Snapshot before the delta mutates the ontologies; resource IDs stay
	// valid (ApplyDelta only appends), so the keys resolve identically.
	var prior *core.ResultSnapshot
	if s.last != nil {
		prior = s.last.Snapshot()
	}
	res, _, err := incremental.Realign(ctx, s.ontos[0], s.ontos[1],
		incremental.Delta{Add1: d.Add1, Add2: d.Add2}, prior, s.config())
	if err != nil {
		return nil, err
	}
	s.last = res
	return res, nil
}

// Aligner returns a fresh step-by-step aligner over the session's two
// ontologies, for per-iteration inspection or custom convergence policies;
// drive it with StepContext or RunContext. Most callers should use Align.
func (s *Session) Aligner() (*Aligner, error) {
	if len(s.ontos) != 2 {
		return nil, ErrNotReady
	}
	return core.NewChecked(s.ontos[0], s.ontos[1], s.config())
}

// config resolves the session's alignment configuration, composing the
// WithProgress callback with any user Config.OnIteration.
func (s *Session) config() Config {
	cfg := s.cfg
	if s.progress != nil {
		progress, user := s.progress, cfg.OnIteration
		cfg.OnIteration = func(it int, a *Aligner) {
			if its := a.Iterations(); len(its) > 0 {
				progress(its[len(its)-1])
			}
			if user != nil {
				user(it, a)
			}
		}
	}
	return cfg
}

// AlignContext runs the full fixpoint over two prebuilt ontologies with
// cancellation, the context-aware replacement for the deprecated Align free
// function. A literal-table mismatch is reported as a *LiteralTableError
// instead of a panic.
func AlignContext(ctx context.Context, o1, o2 *Ontology, cfg Config) (*Result, error) {
	a, err := core.NewChecked(o1, o2, cfg)
	if err != nil {
		return nil, err
	}
	return a.RunContext(ctx)
}
