package ingest

import (
	"bytes"
	"fmt"
	"io"
)

// Default scanner geometry. Blocks are the unit of parallelism (one parse
// task each) and of cancellation (the context is checked per block), so they
// should be large enough to amortize channel traffic and small enough that
// tail latency and cancel response stay in the milliseconds.
const (
	// DefaultBlockSize is the target block payload, before extension to the
	// next line boundary.
	DefaultBlockSize = 1 << 20
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
	Data   []byte
}

// BlockScanner splits a byte stream into line-aligned Blocks. It reads the
// source strictly forward with one fixed-size read buffer per block; the
// only state carried between blocks is the partial final line.
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
	carry  []byte // partial final line of the previous read
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
// exhausted. The returned Block's Data is owned by the caller. Errors are
// sticky.
func (s *BlockScanner) Next() (Block, error) {
	if s.err != nil {
		return Block{}, s.err
	}
	start := s.offset
	buf := s.carry
	s.carry = nil
	for {
		if s.done {
			if len(buf) == 0 {
				s.err = io.EOF
				return Block{}, io.EOF
			}
			// Final block: the stream may legally end without a newline.
			return s.emit(buf, start), nil
		}
		// Read directly into the buffer's tail: one copy per payload byte,
		// no per-block scratch allocation on this single-threaded path.
		old := len(buf)
		buf = append(buf, make([]byte, s.blockSize)...)
		n, err := readFill(s.r, buf[old:])
		buf = buf[:old+n]
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
				Offset: start + int64(len(buf)),
				Msg:    "reading input",
				Err:    err,
			}
			return Block{}, s.err
		}
		if i := bytes.LastIndexByte(buf, '\n'); i >= 0 {
			s.carry = append(s.carry, buf[i+1:]...)
			return s.emit(buf[:i+1], start), nil
		}
		// No newline in blockSize(+carry) bytes: a single line spanning
		// blocks. Keep growing until it terminates or trips the line bound.
		if len(buf) > s.maxLine {
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

func (s *BlockScanner) emit(data []byte, start int64) Block {
	b := Block{Seq: s.seq, Offset: start, Line: s.line + 1, Data: data}
	s.seq++
	s.offset = start + int64(len(data))
	s.line += bytes.Count(data, []byte{'\n'})
	if len(data) > 0 && data[len(data)-1] != '\n' {
		s.line++ // unterminated final line still counts
	}
	return b
}
