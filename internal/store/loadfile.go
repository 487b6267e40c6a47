package store

import (
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/ingest"
	"repro/internal/rdf"
)

// loadConfig collects the LoadOption knobs of the streaming pipeline.
type loadConfig struct {
	workers  int
	progress func(ingest.Progress)
}

// LoadOption configures LoadFile/LoadReader. N-Triples input always
// streams through the internal/ingest parallel pipeline; Turtle input (a
// stateful grammar that cannot be block-split) takes its own sequential
// parser and ignores the options.
type LoadOption func(*loadConfig)

// WithParallelism fans block parsing out to n workers (0 picks the ingest
// default, min(GOMAXPROCS, 8)).
func WithParallelism(n int) LoadOption {
	return func(c *loadConfig) { c.workers = n }
}

// WithMemoryBudget does nothing: the pipeline's memory is bounded by its
// read-ahead window, not a budget.
//
// Deprecated: WithMemoryBudget will be removed.
func WithMemoryBudget(bytes int64) LoadOption {
	return func(*loadConfig) {}
}

// WithSpillDir does nothing: the streaming pipeline writes no temp files.
//
// Deprecated: WithSpillDir will be removed.
func WithSpillDir(dir string) LoadOption {
	return func(*loadConfig) {}
}

// WithLoadProgress streams the cumulative per-block ingest counters during
// the load.
func WithLoadProgress(fn func(ingest.Progress)) LoadOption {
	return func(c *loadConfig) { c.progress = fn }
}

// ContextReader wraps r so every Read fails with the context's error once
// ctx is done — the hook that makes a streaming LoadReader cancellable
// without threading a context through the parsers. The context error is
// returned bare, so errors.Is(err, ctx.Err()) holds on whatever the load
// path wraps around it.
func ContextReader(ctx context.Context, r io.Reader) io.Reader {
	return &ctxReader{ctx: ctx, r: r}
}

type ctxReader struct {
	ctx context.Context
	r   io.Reader
}

func (c *ctxReader) Read(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.r.Read(p)
}

// rdfExtensions are the file extensions LoadFile understands, gzip last so
// BaseName strips it first.
var rdfExtensions = []string{".nt", ".ntriples", ".ttl", ".turtle", ".gz"}

// BaseName returns the base of path without its RDF and gzip extensions —
// the display-name derivation used for KBs loaded by path (e.g.
// "/data/yago.nt.gz" → "yago"). It recognizes exactly the extensions
// LoadFile accepts, so the two cannot drift.
func BaseName(path string) string {
	base := filepath.Base(path)
	for stripped := true; stripped; {
		stripped = false
		for _, ext := range rdfExtensions {
			if len(base) > len(ext) && strings.EqualFold(base[len(base)-len(ext):], ext) {
				base = base[:len(base)-len(ext)]
				stripped = true
			}
		}
	}
	return base
}

// LoadFile parses an RDF file into a frozen ontology. The format is chosen
// by extension: .nt/.ntriples for N-Triples, .ttl/.turtle for Turtle. A
// trailing .gz extension (kb.nt.gz, kb.ttl.gz) is decompressed
// transparently — the real dumps of Section 6 of the paper (DBpedia, YAGO)
// ship gzipped. name is the ontology's display name; lits must be shared
// across the alignment; a nil norm means Identity.
func LoadFile(path, name string, lits *Literals, norm Normalizer, opts ...LoadOption) (*Ontology, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadReader(f, path, name, lits, norm, opts...)
}

// LoadReader parses an RDF stream into a frozen ontology. format carries
// the extensions that select the parser — a bare format (".nt", ".ttl",
// optionally with a trailing ".gz" for gzip-compressed input) or a full
// file path whose extensions are examined; it also labels the stream in
// error messages. This is the streaming entry point behind LoadFile: the
// caller owns the reader, so sources that are not files (network bodies,
// pipes, context-cancellable wrappers) load through the same one-pass
// builder.
func LoadReader(r io.Reader, format, name string, lits *Literals, norm Normalizer, opts ...LoadOption) (*Ontology, error) {
	return LoadReaderContext(context.Background(), r, format, name, lits, norm, opts...)
}

// LoadReaderContext is LoadReader with cancellation: the context aborts an
// N-Triples load per block and a Turtle load between reads.
func LoadReaderContext(ctx context.Context, r io.Reader, format, name string, lits *Literals, norm Normalizer, opts ...LoadOption) (*Ontology, error) {
	var cfg loadConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	// Error label: a path-like format already identifies the stream; a
	// bare (or missing) extension says nothing, so prefix the ontology
	// name ("left.nt" instead of ".nt") to tell two reader sources apart.
	label := format
	if name != "" && (format == "" || strings.HasPrefix(format, ".")) {
		label = name + format
	}
	base := format
	if strings.EqualFold(filepath.Ext(format), ".gz") {
		zr, err := gzip.NewReader(ContextReader(ctx, r))
		if err != nil {
			return nil, fmt.Errorf("store: loading %s: %w", label, err)
		}
		defer zr.Close()
		r = zr
		base = strings.TrimSuffix(format, filepath.Ext(format))
	} else {
		r = ContextReader(ctx, r)
	}

	b := NewBuilder(name, lits, norm)
	switch ext := strings.ToLower(filepath.Ext(base)); ext {
	case ".nt", ".ntriples":
		// Block-parallel parse feeding the builder as it goes; triples
		// arrive in exact input order, so the builder's interning (and
		// everything downstream) matches a sequential read.
		_, err := ingest.Run(ctx, r, ingest.Options{
			Workers:  cfg.workers,
			Progress: cfg.progress,
		}, b.Add)
		if err != nil {
			return nil, fmt.Errorf("store: loading %s: %w", label, err)
		}
	case ".ttl", ".turtle":
		tr, err := rdf.NewTurtleReader(r)
		if err != nil {
			return nil, fmt.Errorf("store: loading %s: %w", label, err)
		}
		if err := b.Load(tr); err != nil {
			return nil, fmt.Errorf("store: loading %s: %w", label, err)
		}
	default:
		return nil, fmt.Errorf("store: unsupported RDF format %q in %s (want .nt or .ttl, optionally .gz)", ext, label)
	}
	return b.Build(), nil
}
