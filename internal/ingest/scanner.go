package ingest

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"
)

// Default scanner geometry. Blocks are the unit of parallelism (one parse
// task each) and of cancellation (the context is checked per block). The
// consumer starts building on a file's first parsed block, so blocks must be
// small against a typical KB for scan, parse and build to overlap: a 0.75 MB
// KB in one block is parsed by one worker while the others idle and the
// builder waits. On 2 vCPUs 64 KiB loads a persons pair (N=500) about twice
// as fast as 1 MiB and a world pair about 17% faster; 16 and 32 KiB add
// channel traffic per byte without further overlap on the world corpus.
const (
	// DefaultBlockSize is the target block payload, before extension to the
	// next line boundary.
	DefaultBlockSize = 64 << 10
	// DefaultMaxLine bounds a single line, matching the sequential reader's
	// bufio.Scanner cap, so the two paths accept the same inputs.
	DefaultMaxLine = 16 << 20
)

// Block is one line-aligned chunk of the input stream: it starts at the
// beginning of a line and ends after a newline (except possibly the last
// block of the stream). Seq numbers blocks 0,1,2,… in stream order. Offset
// and Line locate the block for error reporting.
type Block struct {
	Seq    int
	Offset int64 // byte offset of Data[0] in the (decompressed) stream
	Line   int   // 1-based line number of the first line in Data
	Data   string
}

// BlockScanner splits a byte stream into line-aligned Blocks. It reads the
// source strictly forward into one reused buffer and emits each block as a
// string, the block's only copy; the partial final line moves to the front
// of the buffer and starts the next block.
//
// A line longer than maxLine fails with a typed *Error (ErrOversizedLine)
// naming the line's byte offset: in a line-based format, a run of input
// without newlines is how truncation and binary corruption manifest, so it
// is reported rather than buffered without bound. Read errors from the
// source (for example a truncated gzip member) are wrapped in *Error with
// the current stream offset.
type BlockScanner struct {
	r         io.Reader
	blockSize int
	maxLine   int

	offset int64  // stream offset of the next block
	line   int    // lines emitted so far
	seq    int    // blocks emitted so far
	buf    []byte // read buffer; buf[:n] is input not yet emitted
	n      int    // length of the partial final line carried in buf
	done   bool   // source reached EOF
	err    error  // sticky failure
}

// NewBlockScanner returns a scanner over r. blockSize and maxLine default to
// DefaultBlockSize and DefaultMaxLine when non-positive.
func NewBlockScanner(r io.Reader, blockSize, maxLine int) *BlockScanner {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	if maxLine <= 0 {
		maxLine = DefaultMaxLine
	}
	return &BlockScanner{r: r, blockSize: blockSize, maxLine: maxLine}
}

// Next returns the next line-aligned block, or io.EOF when the stream is
// exhausted. Errors are sticky.
func (s *BlockScanner) Next() (Block, error) {
	if s.err != nil {
		return Block{}, s.err
	}
	start := s.offset
	for {
		if s.done {
			if s.n == 0 {
				s.err = io.EOF
				return Block{}, io.EOF
			}
			// Final block: the stream may legally end without a newline.
			data := string(s.buf[:s.n])
			s.n = 0
			return s.emit(data, start), nil
		}
		// Read blockSize bytes after the carried partial line. The buffer
		// grows only when the carry does not fit.
		s.buf = slices.Grow(s.buf[:s.n], s.blockSize)[:s.n+s.blockSize]
		m, err := readFill(s.r, s.buf[s.n:])
		s.n += m
		switch err {
		case nil:
		case io.EOF:
			s.done = true
			continue
		default:
			// The source's own error, verbatim — io.ReadFull would fold a
			// gzip truncation (io.ErrUnexpectedEOF) into a clean-looking
			// short read, silently accepting a cut-off dump.
			s.err = &Error{
				Offset: start + int64(s.n),
				Msg:    "reading input",
				Err:    err,
			}
			return Block{}, s.err
		}
		if i := bytes.LastIndexByte(s.buf[:s.n], '\n'); i >= 0 {
			data := string(s.buf[:i+1])
			s.n = copy(s.buf, s.buf[i+1:s.n])
			return s.emit(data, start), nil
		}
		// No newline in blockSize(+carry) bytes: a single line spanning
		// blocks. Keep growing until it terminates or trips the line bound.
		if s.n > s.maxLine {
			s.err = &Error{
				Offset: start,
				Line:   s.line + 1,
				Msg:    fmt.Sprintf("line exceeds %d bytes", s.maxLine),
				Err:    ErrOversizedLine,
			}
			return Block{}, s.err
		}
	}
}

// readFill reads until p is full or the source errs, returning the source's
// error unchanged (io.EOF only for a genuinely clean end of stream).
func readFill(r io.Reader, p []byte) (int, error) {
	n := 0
	for n < len(p) {
		m, err := r.Read(p[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

func (s *BlockScanner) emit(data string, start int64) Block {
	b := Block{Seq: s.seq, Offset: start, Line: s.line + 1, Data: data}
	s.seq++
	s.offset = start + int64(len(data))
	s.line += strings.Count(data, "\n")
	if len(data) > 0 && data[len(data)-1] != '\n' {
		s.line++ // unterminated final line still counts
	}
	return b
}
