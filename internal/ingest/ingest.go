// Package ingest is the streaming parallel KB loader: a chunked N-Triples
// pipeline that splits the input at line boundaries into fixed-size blocks,
// parses the blocks on parallel workers, and hands each block's triples to
// the consumer in exact input order as soon as that block and every earlier
// one is parsed — so the consumer's work overlaps parsing, and the result is
// bit-compatible with the sequential loader.
//
// The order guarantee is the load-bearing design point: the consumer takes
// blocks strictly by sequence number, so it sees the dump exactly as
// written. Dictionary IDs assigned downstream (store.Builder interns in
// first-occurrence order) therefore come out identical to a sequential load
// — the property the differential acceptance test pins down.
//
// Memory is bounded by a read-ahead window, not by the dump: the scanner
// stalls once 2×Workers parsed or pending blocks wait for the consumer, so a
// multi-GB dump passes through a few blocks at a time. At the default 64 KiB
// block and 2 workers the window holds 256 KiB of input and its triples.
//
// Each block is copied once, from the scanner's reused read buffer into a
// string; the IRIs, blank labels and unescaped literal values of its triples
// are substrings of that string. The consumer hands every emitted block's
// triple slice back to the parse workers, so a run allocates about one
// triple slice per window slot rather than one per block.
package ingest

import (
	"context"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"repro/internal/rdf"
)

// Options configures one pipeline run. The zero value of every field has a
// usable default.
type Options struct {
	// Workers is the number of parallel parse workers (default
	// min(GOMAXPROCS, 8)). The read-ahead window is 2×Workers blocks.
	Workers int

	// BlockSize is the target block payload in bytes (default
	// DefaultBlockSize). Blocks are the unit of parallelism, progress
	// reporting, and cancellation.
	BlockSize int

	// MaxLine bounds a single input line (default DefaultMaxLine); longer
	// lines fail with ErrOversizedLine rather than buffering without bound.
	MaxLine int

	// TempDir is ignored: the pipeline writes no temp files.
	//
	// Deprecated: the ordered stream has nothing to spill; the field will
	// be removed.
	TempDir string

	// Strict makes malformed lines fatal. The default mirrors the
	// sequential reader: malformed lines are skipped and counted, because
	// real-world dumps contain occasional garbage. Stream-level corruption
	// (oversized lines, bare carriage returns, invalid UTF-8 in IRIs,
	// truncated or damaged compressed input) is always fatal, with a typed
	// *Error naming the byte offset.
	Strict bool

	// Progress, when non-nil, receives the cumulative pipeline counters
	// after every block the consumer has taken, on the goroutine that
	// called Run: 16 times per MiB at the default block size. Keep the
	// callback fast, and thin the calls before forwarding them anywhere
	// costly, such as a job record and its SSE stream.
	Progress func(Progress)
}

// Progress is the cumulative state of a pipeline run: per-block counters
// during the run (via Options.Progress) and the final totals (returned by
// Run).
type Progress struct {
	// Blocks and Bytes count consumed input (decompressed).
	Blocks int   `json:"blocks"`
	Bytes  int64 `json:"bytes"`
	// Triples counts parsed triples; Skipped counts malformed lines
	// dropped in non-strict mode.
	Triples int64 `json:"triples"`
	Skipped int64 `json:"skipped,omitempty"`
	// Elapsed is the wall-clock time since the pipeline run started, so
	// consumers (job watchers, the server's ingest metrics) can derive
	// throughput (Bytes/Elapsed) without tracking the start themselves.
	Elapsed time.Duration `json:"elapsed,omitempty"`
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = min(runtime.GOMAXPROCS(0), 8)
	}
	if o.BlockSize <= 0 {
		o.BlockSize = DefaultBlockSize
	}
	if o.MaxLine <= 0 {
		o.MaxLine = DefaultMaxLine
	}
	return o
}

// task is one block on its way through the pipeline: the scanner creates
// it, a parse worker fills in the result and closes done, and the consumer
// waits on done in block order.
type task struct {
	b       Block
	size    int // len(b.Data); Data itself is dropped once parsed
	triples []rdf.Triple
	skipped int64
	err     error
	done    chan struct{}
}

// Run streams the N-Triples document r through the parallel pipeline,
// calling emit for every triple in exact input order, on the calling
// goroutine. It returns the final counters and the first error in input
// order: a typed *Error for corrupt input, the context's error when
// canceled (checked per block, so a cancel aborts a multi-GB load
// promptly), or emit's error. Blocks before a failing block may already
// have reached emit when Run returns the error, so a caller must discard
// what it built from them.
//
// emit receives each triple by value: the slice it came from is reused for
// a later block once emit has seen the whole block. Its terms' strings are
// substrings of the block (escaped literals and IRIs aside), so a consumer
// that keeps one must copy it or keep the whole block alive.
func Run(ctx context.Context, r io.Reader, opts Options, emit func(rdf.Triple) error) (Progress, error) {
	opts = opts.withDefaults()
	pctx, cancel := context.WithCancel(ctx)
	// The scanner and the workers must be joined on every return path:
	// Run's contract is that r is no longer touched once Run returns
	// (callers close gzip readers and reuse readers immediately), and the
	// scanner may be inside r.Read when an error or a cancellation ends the
	// run early. The join is bounded by one Read.
	var wg sync.WaitGroup
	defer func() {
		cancel()
		wg.Wait()
	}()

	// order carries every block to the consumer in sequence, and its
	// capacity is the read-ahead window: the scanner stalls while it is
	// full. work carries the same blocks to the parse workers, with room
	// for a whole window of them.
	window := 2 * opts.Workers
	order := make(chan *task, window)
	work := make(chan *task, window)
	// free returns emitted triple slices to the workers. It has room for
	// one per window slot and worker; a slice that finds it full is dropped.
	free := make(chan []rdf.Triple, window+opts.Workers)
	send := func(ch chan<- *task, t *task) bool {
		select {
		case ch <- t:
			return true
		case <-pctx.Done():
			return false
		}
	}

	wg.Add(1 + opts.Workers)
	go func() {
		defer wg.Done()
		defer close(order)
		defer close(work)
		sc := NewBlockScanner(r, opts.BlockSize, opts.MaxLine)
		for pctx.Err() == nil {
			b, err := sc.Next()
			if err == io.EOF {
				return
			}
			t := &task{b: b, size: len(b.Data), err: err, done: make(chan struct{})}
			if err != nil {
				// A read failure reaches the consumer in order, after
				// every block before it.
				close(t.done)
				send(order, t)
				return
			}
			if !send(work, t) || !send(order, t) {
				return
			}
		}
	}()
	for w := 0; w < opts.Workers; w++ {
		go func() {
			defer wg.Done()
			for t := range work {
				// Once the run is over, drain without parsing.
				t.err = pctx.Err()
				if t.err == nil {
					var out []rdf.Triple
					select {
					case out = <-free:
					default:
					}
					t.triples, t.skipped, t.err = parseBlock(t.b, opts, out)
				}
				t.b.Data = ""
				close(t.done)
			}
		}()
	}

	start := time.Now()
	var p Progress
	finish := func(err error) (Progress, error) {
		p.Elapsed = time.Since(start)
		return p, err
	}
	for t := range order {
		select {
		case <-t.done:
		case <-ctx.Done():
		}
		// The context's error is returned bare, so callers'
		// errors.Is(err, ctx.Err()) holds.
		if err := ctx.Err(); err != nil {
			return finish(err)
		}
		if t.err != nil {
			return finish(t.err)
		}
		for _, tr := range t.triples {
			if err := emit(tr); err != nil {
				return finish(err)
			}
		}
		p.Blocks++
		p.Bytes += int64(t.size)
		p.Triples += int64(len(t.triples))
		p.Skipped += t.skipped
		select {
		case free <- t.triples:
		default:
		}
		p.Elapsed = time.Since(start)
		if opts.Progress != nil {
			opts.Progress(p)
		}
	}
	// order also closes when a cancellation stopped the scanner early.
	return finish(ctx.Err())
}

// parseBlock parses one block's lines, mirroring the sequential reader's
// skip semantics (blank lines, '#' comments, and — in non-strict mode —
// malformed lines), plus the corruption checks that are always fatal: a
// per-line length bound, bare carriage returns, and invalid UTF-8 in IRIs.
//
// Lines, and the IRIs, blank labels and unescaped literal values parsed
// from them, are substrings of the block's string. A consumer that keeps a
// term beyond the triple's lifetime must copy it (store.Builder does, on
// first sight), or it keeps the whole block alive.
//
// The triples overwrite out, a slice recycled from an earlier block, which
// is grown to the block's line count when it is too small. Whatever is left
// of out's earlier triples is cleared, so they do not keep their block alive.
func parseBlock(b Block, opts Options, out []rdf.Triple) ([]rdf.Triple, int64, error) {
	data := b.Data
	stale := len(out)
	out = slices.Grow(out[:0], strings.Count(data, "\n")+1)
	var skipped int64
	lineNo := b.Line - 1
	for off := 0; off < len(data); {
		lineNo++
		lineStart := off
		raw := data[off:]
		if nl := strings.IndexByte(raw, '\n'); nl >= 0 {
			raw = raw[:nl]
			off += nl + 1
		} else {
			off = len(data)
		}
		if len(raw) > opts.MaxLine {
			return nil, 0, &Error{
				Offset: b.Offset + int64(lineStart), Line: lineNo,
				Msg: "oversized line", Err: ErrOversizedLine,
			}
		}
		raw = strings.TrimSuffix(raw, "\r") // CRLF line ending
		if i := strings.IndexByte(raw, '\r'); i >= 0 {
			return nil, 0, &Error{
				Offset: b.Offset + int64(lineStart+i), Line: lineNo,
				Err: ErrBareCR,
			}
		}
		line := strings.TrimSpace(raw)
		if line == "" || line[0] == '#' {
			continue
		}
		t, err := rdf.ParseLine(line, lineNo)
		if err != nil {
			if opts.Strict {
				return nil, 0, &Error{
					Offset: b.Offset + int64(lineStart), Line: lineNo,
					Msg: "malformed triple", Err: err,
				}
			}
			skipped++
			continue
		}
		if iri, bad := invalidIRI(&t); bad {
			return nil, 0, &Error{
				Offset: b.Offset + int64(lineStart), Line: lineNo,
				Msg: "IRI " + iri, Err: ErrInvalidUTF8,
			}
		}
		out = append(out, t)
	}
	if n := len(out); n < stale {
		clear(out[n:stale])
	}
	return out, skipped, nil
}

// invalidIRI reports the first IRI term of t whose bytes are not valid
// UTF-8 (quoted, for the error message).
func invalidIRI(t *rdf.Triple) (string, bool) {
	for _, term := range [...]*rdf.Term{&t.Subject, &t.Predicate, &t.Object} {
		if term.IsIRI() && !utf8.ValidString(term.Value) {
			return quoteLossy(term.Value), true
		}
		if term.IsLiteral() && term.Datatype != "" && !utf8.ValidString(term.Datatype) {
			return quoteLossy(term.Datatype), true
		}
	}
	return "", false
}

// quoteLossy renders a possibly invalid-UTF-8 string for an error message.
func quoteLossy(s string) string {
	return strings.ToValidUTF8(s, "�")
}
