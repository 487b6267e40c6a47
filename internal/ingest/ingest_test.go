package ingest

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rdf"
)

// genDoc builds a deterministic N-Triples document with n facts plus a few
// comments and blank lines, returning the document and the triples a
// sequential strict parse yields.
func genDoc(n int) string {
	var b strings.Builder
	b.WriteString("# synthetic ingest corpus\n\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<http://x/e%d> <http://x/knows> <http://x/e%d> .\n", i, (i*7+3)%n)
		if i%3 == 0 {
			fmt.Fprintf(&b, "<http://x/e%d> <http://x/name> \"entity %d\" .\n", i, i)
		}
		if i%5 == 0 {
			fmt.Fprintf(&b, "<http://x/e%d> <http://x/age> \"%d\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n", i, i%90)
		}
	}
	return b.String()
}

// sequential parses doc exactly like the legacy loader (non-strict
// NTriplesReader).
func sequential(t *testing.T, doc string) []rdf.Triple {
	t.Helper()
	r := rdf.NewNTriplesReader(strings.NewReader(doc))
	out, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func runCollect(t *testing.T, doc string, opts Options) ([]rdf.Triple, Progress) {
	t.Helper()
	var got []rdf.Triple
	stats, err := Run(context.Background(), strings.NewReader(doc), opts, func(tr rdf.Triple) error {
		got = append(got, tr)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, stats
}

func assertSameTriples(t *testing.T, want, got []rdf.Triple) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("triple count: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		if !want[i].Equal(got[i]) {
			t.Fatalf("triple %d: want %v, got %v", i, want[i], got[i])
		}
	}
}

func TestPipelineMatchesSequentialOrder(t *testing.T) {
	doc := genDoc(2000)
	want := sequential(t, doc)
	got, stats := runCollect(t, doc, Options{Workers: 4, BlockSize: 1 << 10})
	assertSameTriples(t, want, got)
	if stats.Triples != int64(len(want)) {
		t.Errorf("stats.Triples = %d, want %d", stats.Triples, len(want))
	}
	if stats.Blocks < 2 {
		t.Errorf("expected multiple blocks, got %d", stats.Blocks)
	}
}

// TestPipelineOrdersWhenWorkersRunAhead: a consumer that yields every 50
// triples lets the parse workers run a full window ahead of it and finish
// blocks out of order; the consumer must still see exact input order.
func TestPipelineOrdersWhenWorkersRunAhead(t *testing.T) {
	const workers = 3
	doc := genDoc(3000)
	want := sequential(t, doc)
	var got []rdf.Triple
	stats, err := Run(context.Background(), strings.NewReader(doc), Options{Workers: workers, BlockSize: 1 << 10},
		func(tr rdf.Triple) error {
			got = append(got, tr)
			if len(got)%50 == 0 {
				runtime.Gosched()
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	assertSameTriples(t, want, got)
	if window := 2 * workers; stats.Blocks < 3*window {
		t.Errorf("only %d blocks; the document must span several windows of %d", stats.Blocks, window)
	}
}

// countingReader counts the bytes its source has supplied.
type countingReader struct {
	r io.Reader
	n atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// TestPipelineBoundedReadAhead: a consumer that stalls on the first triple
// stalls the scanner too, once the read-ahead window is full, instead of
// letting the pipeline read (and buffer) the whole dump.
func TestPipelineBoundedReadAhead(t *testing.T) {
	const workers, blockSize = 2, 1 << 10
	var b strings.Builder
	for i := 0; b.Len() < 200*blockSize; i++ {
		fmt.Fprintf(&b, "<http://x/e%d> <http://x/knows> <http://x/e%d> .\n", i, i+1)
	}
	doc := b.String()
	src := &countingReader{r: strings.NewReader(doc)}
	// The consumer's block, a full window (2×workers) queued behind it,
	// the scanner's next block waiting to join the queue, and one block of
	// slack for the partial line carried between reads.
	const maxBlocks = 2*workers + 3
	var supplied int64
	var got []rdf.Triple
	_, err := Run(context.Background(), src, Options{Workers: workers, BlockSize: blockSize},
		func(tr rdf.Triple) error {
			if len(got) == 0 {
				// Give the pipeline time to read as far as it can. The
				// bound must hold however long the consumer stalls; the
				// pause only gives an unbounded pipeline room to show.
				time.Sleep(100 * time.Millisecond)
				supplied = src.n.Load()
			}
			got = append(got, tr)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if blocks := (supplied + blockSize - 1) / blockSize; blocks > maxBlocks {
		t.Errorf("reader supplied %d blocks (%d bytes of %d) while the consumer held the first triple; the window allows %d",
			blocks, supplied, len(doc), maxBlocks)
	}
	assertSameTriples(t, sequential(t, doc), got)
}

func TestPipelineSkipsMalformedLinesLikeSequential(t *testing.T) {
	doc := "<http://x/a> <http://x/p> <http://x/b> .\n" +
		"this line is garbage\n" +
		"<http://x/c> <http://x/p> \"v\" .\n"
	want := sequential(t, doc)
	got, stats := runCollect(t, doc, Options{Workers: 2})
	assertSameTriples(t, want, got)
	if stats.Skipped != 1 {
		t.Errorf("Skipped = %d, want 1", stats.Skipped)
	}
}

func TestPipelineStrictModeFailsOnMalformed(t *testing.T) {
	doc := "<http://x/a> <http://x/p> <http://x/b> .\ngarbage here\n"
	_, err := Run(context.Background(), strings.NewReader(doc), Options{Strict: true},
		func(rdf.Triple) error { return nil })
	var ie *Error
	if !errors.As(err, &ie) {
		t.Fatalf("want *Error, got %v", err)
	}
	if ie.Offset != 41 {
		t.Errorf("Offset = %d, want 41 (start of the malformed line)", ie.Offset)
	}
	var pe *rdf.ParseError
	if !errors.As(err, &pe) {
		t.Errorf("want wrapped *rdf.ParseError, got %v", err)
	}
}

func TestPipelineGzipTruncationTyped(t *testing.T) {
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	doc := genDoc(500)
	if _, err := zw.Write([]byte(doc)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	// Cut the gzip stream mid-member: decompression delivers a prefix and
	// then fails. The pipeline must surface a typed error with the
	// decompressed offset, not silently accept the prefix.
	trunc := zbuf.Bytes()[:zbuf.Len()/2]
	zr, err := gzip.NewReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), zr, Options{}, func(rdf.Triple) error { return nil })
	var ie *Error
	if !errors.As(err, &ie) {
		t.Fatalf("want *Error for truncated gzip, got %v", err)
	}
	if ie.Offset <= 0 || ie.Offset > int64(len(doc)) {
		t.Errorf("Offset = %d, want within the decompressed prefix (0, %d]", ie.Offset, len(doc))
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("want wrapped io.ErrUnexpectedEOF, got %v", err)
	}
}

func TestPipelineOversizedLiteralTyped(t *testing.T) {
	good := "<http://x/a> <http://x/p> <http://x/b> .\n"
	monster := "<http://x/a> <http://x/p> \"" + strings.Repeat("x", 64<<10) + "\" .\n"
	doc := good + monster
	_, err := Run(context.Background(), strings.NewReader(doc),
		Options{BlockSize: 1 << 10, MaxLine: 8 << 10},
		func(rdf.Triple) error { return nil })
	var ie *Error
	if !errors.As(err, &ie) {
		t.Fatalf("want *Error for oversized literal, got %v", err)
	}
	if !errors.Is(err, ErrOversizedLine) {
		t.Errorf("want ErrOversizedLine, got %v", err)
	}
	if ie.Offset != int64(len(good)) {
		t.Errorf("Offset = %d, want %d (start of the oversized line)", ie.Offset, len(good))
	}
}

func TestPipelineBareCRTyped(t *testing.T) {
	for name, doc := range map[string]string{
		// Classic-Mac line endings: no LF at all, CRs in the middle.
		"classic-mac": "<http://x/a> <http://x/p> <http://x/b> .\r<http://x/c> <http://x/p> <http://x/d> .\r",
		// Raw CR inside a literal (must be escaped as \r in N-Triples).
		"raw-cr-in-literal": "<http://x/a> <http://x/p> \"bad\rvalue\" .\n",
	} {
		t.Run(name, func(t *testing.T) {
			_, err := Run(context.Background(), strings.NewReader(doc), Options{},
				func(rdf.Triple) error { return nil })
			var ie *Error
			if !errors.As(err, &ie) {
				t.Fatalf("want *Error, got %v", err)
			}
			if !errors.Is(err, ErrBareCR) {
				t.Errorf("want ErrBareCR, got %v", err)
			}
			if ie.Offset != int64(strings.IndexByte(doc, '\r')) {
				t.Errorf("Offset = %d, want %d (the bare CR)", ie.Offset, strings.IndexByte(doc, '\r'))
			}
		})
	}
}

func TestPipelineInvalidUTF8IRITyped(t *testing.T) {
	good := "<http://x/a> <http://x/p> <http://x/b> .\n"
	bad := "<http://x/\xff\xfe> <http://x/p> <http://x/c> .\n"
	doc := good + bad
	_, err := Run(context.Background(), strings.NewReader(doc), Options{},
		func(rdf.Triple) error { return nil })
	var ie *Error
	if !errors.As(err, &ie) {
		t.Fatalf("want *Error for invalid UTF-8 IRI, got %v", err)
	}
	if !errors.Is(err, ErrInvalidUTF8) {
		t.Errorf("want ErrInvalidUTF8, got %v", err)
	}
	if ie.Offset != int64(len(good)) {
		t.Errorf("Offset = %d, want %d (start of the offending line)", ie.Offset, len(good))
	}
	if ie.Line != 2 {
		t.Errorf("Line = %d, want 2", ie.Line)
	}
}

// TestPipelineCancellationCleansTempSegments is the regression test for the
// coarse-cancellation bug: the pipeline must notice ctx cancellation at
// block granularity mid-load, and it must leave nothing in TempDir.
func TestPipelineCancellationCleansTempSegments(t *testing.T) {
	doc := genDoc(5000)
	tmp := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	blocks := 0
	_, err := Run(ctx, strings.NewReader(doc), Options{
		Workers:   2,
		BlockSize: 1 << 10,
		TempDir:   tmp,
		Progress: func(p Progress) {
			blocks = p.Blocks
			if p.Blocks >= 3 {
				once.Do(cancel)
			}
		},
	}, func(rdf.Triple) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if blocks >= 200 {
		t.Errorf("cancellation was not prompt: %d blocks consumed after cancel at 3", blocks)
	}
	ents, derr := os.ReadDir(tmp)
	if derr != nil {
		t.Fatal(derr)
	}
	if len(ents) != 0 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Errorf("files left in TempDir after cancellation: %v", names)
	}
}

func TestPipelineEmitErrorStopsMerge(t *testing.T) {
	doc := genDoc(100)
	boom := errors.New("boom")
	n := 0
	_, err := Run(context.Background(), strings.NewReader(doc), Options{},
		func(rdf.Triple) error {
			n++
			if n == 10 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("want emit error, got %v", err)
	}
	if n != 10 {
		t.Errorf("emit called %d times, want 10", n)
	}
}

// TestParseBlockRecycledSlice: a block parsed into a slice recycled from a
// longer block gets exactly its own triples in that slice, and the earlier
// block's triples past the new end are cleared, so they cannot keep the
// earlier block's string alive.
func TestParseBlockRecycledSlice(t *testing.T) {
	opts := Options{}.withDefaults()
	first, _, err := parseBlock(Block{Line: 1, Data: genDoc(20)}, opts, nil)
	if err != nil || len(first) < 2 {
		t.Fatalf("first block: %d triples, %v", len(first), err)
	}
	doc := "<http://x/a> <http://x/p> \"v\" .\n"
	got, _, err := parseBlock(Block{Line: 1, Data: doc}, opts, first)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTriples(t, sequential(t, doc), got)
	if &got[0] != &first[0] {
		t.Error("the recycled slice was not reused")
	}
	for i, tr := range first[len(got):] {
		if tr != (rdf.Triple{}) {
			t.Fatalf("stale triple %d of the earlier block survives: %v", len(got)+i, tr)
		}
	}
}

func TestPipelineEmptyAndCommentOnlyInput(t *testing.T) {
	for name, doc := range map[string]string{
		"empty":        "",
		"comments":     "# nothing\n# here\n\n",
		"no-final-eol": "<http://x/a> <http://x/p> <http://x/b> .",
	} {
		t.Run(name, func(t *testing.T) {
			want := sequential(t, doc)
			got, _ := runCollect(t, doc, Options{Workers: 2})
			assertSameTriples(t, want, got)
		})
	}
}

func TestPipelineCRLFMatchesSequential(t *testing.T) {
	doc := strings.ReplaceAll(genDoc(300), "\n", "\r\n")
	want := sequential(t, doc)
	got, _ := runCollect(t, doc, Options{Workers: 3, BlockSize: 512})
	assertSameTriples(t, want, got)
}

func TestProgressMonotonic(t *testing.T) {
	doc := genDoc(2000)
	var mu sync.Mutex
	var last Progress
	_, err := Run(context.Background(), strings.NewReader(doc), Options{
		Workers: 4, BlockSize: 1 << 10,
		Progress: func(p Progress) {
			mu.Lock()
			defer mu.Unlock()
			if p.Blocks < last.Blocks || p.Bytes < last.Bytes || p.Triples < last.Triples {
				t.Errorf("progress went backwards: %+v after %+v", p, last)
			}
			last = p
		},
	}, func(rdf.Triple) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if last.Blocks == 0 {
		t.Fatal("no progress reported")
	}
}
