// Package trace models program address traces: the sequence of (virtual)
// addresses accessed by a program, each tagged as an instruction fetch, data
// read or data write. It is the substrate every experiment in the paper is
// driven by (§1.1, "Trace Driven Simulation").
//
// The core abstraction is the Reader stream interface. Synthetic workload
// generators, file decoders, filters and the multiprogramming interleaver
// all implement or consume it, so simulations compose without materializing
// whole traces in memory.
package trace

import (
	"errors"
	"fmt"
	"io"
)

// Kind classifies a memory reference.
type Kind uint8

const (
	// IFetch is an instruction fetch.
	IFetch Kind = iota
	// Read is a data read.
	Read
	// Write is a data write.
	Write
	numKinds
)

// String returns the canonical one-letter mnemonic used by the text trace
// format: "i", "r" or "w".
func (k Kind) String() string {
	switch k {
	case IFetch:
		return "i"
	case Read:
		return "r"
	case Write:
		return "w"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Valid reports whether k is one of the three defined kinds.
func (k Kind) Valid() bool { return k < numKinds }

// IsData reports whether k is a data reference (read or write).
func (k Kind) IsData() bool { return k == Read || k == Write }

// Ref is a single memory reference: an address, the number of bytes touched,
// and the reference kind. Size is the width of the individual access as seen
// at the memory interface (§1.1 discusses how the data-path width shapes the
// reference stream); it is what write-through traffic accounting charges per
// store.
type Ref struct {
	Addr uint64
	Size uint8
	Kind Kind
}

// Line returns the cache line index of the reference for the given line
// size, which must be a power of two. It is the unit Table 2's #Ilines and
// #Dlines columns count.
func (r Ref) Line(lineSize int) uint64 {
	return r.Addr >> log2(lineSize)
}

// log2 returns floor(log2(n)) for n >= 1; callers pass power-of-two sizes.
func log2(n int) uint {
	var s uint
	for n > 1 {
		n >>= 1
		s++
	}
	return s
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Reader is a stream of references. Read returns io.EOF when the trace is
// exhausted; a Ref returned together with io.EOF must be ignored.
type Reader interface {
	Read() (Ref, error)
}

// Writer consumes references, e.g. to encode them to a file.
type Writer interface {
	Write(Ref) error
}

// ReaderFunc adapts a function to the Reader interface.
type ReaderFunc func() (Ref, error)

// Read calls f.
func (f ReaderFunc) Read() (Ref, error) { return f() }

// Skipper is implemented by readers that can discard references without
// materializing them. Consumers that skip long stretches of a stream (the
// sampled sweep driver's gaps) use it to avoid a per-reference Read call;
// Skip returns how many references were actually discarded, which is less
// than n only when the stream ended first.
type Skipper interface {
	Skip(n int) (int, error)
}

// Slicer is implemented by readers that can hand out their remaining
// references as a shared slice without copying. Borrow uses it so that
// consumers needing the whole stream in memory (the per-size and sampled
// sweep engines) share the backing slice instead of collecting a copy;
// ok=false means the reader cannot, and Borrow falls back to Collect.
type Slicer interface {
	RestSlice() (refs []Ref, ok bool)
}

// SliceReader replays a fixed slice of references.
type SliceReader struct {
	refs []Ref
	pos  int
}

// NewSliceReader returns a Reader over refs. The slice is not copied; the
// caller must not mutate it while reading.
func NewSliceReader(refs []Ref) *SliceReader { return &SliceReader{refs: refs} }

// Read returns the next reference or io.EOF.
func (s *SliceReader) Read() (Ref, error) {
	if s.pos >= len(s.refs) {
		return Ref{}, io.EOF
	}
	r := s.refs[s.pos]
	s.pos++
	return r, nil
}

// Skip discards up to n references in O(1), returning how many were
// available.
func (s *SliceReader) Skip(n int) (int, error) {
	if n <= 0 {
		return 0, nil
	}
	if rem := len(s.refs) - s.pos; n > rem {
		n = rem
	}
	s.pos += n
	return n, nil
}

// RestSlice returns the remaining references as a view of the underlying
// slice (no copy) and leaves the reader at EOF, mirroring what draining it
// through Read would. The caller must not mutate the returned slice.
func (s *SliceReader) RestSlice() ([]Ref, bool) {
	refs := s.refs[s.pos:]
	s.pos = len(s.refs)
	return refs, true
}

// Reset rewinds the reader to the beginning of the slice.
func (s *SliceReader) Reset() { s.pos = 0 }

// Len returns the total number of references in the underlying slice.
func (s *SliceReader) Len() int { return len(s.refs) }

// Recorder is a Writer that accumulates references into memory.
type Recorder struct {
	Refs []Ref
}

// Write appends r.
func (rec *Recorder) Write(r Ref) error {
	rec.Refs = append(rec.Refs, r)
	return nil
}

// Reader returns a SliceReader over everything recorded so far.
func (rec *Recorder) Reader() *SliceReader { return NewSliceReader(rec.Refs) }

// Collect drains r into a slice, stopping at io.EOF or after max references
// when max > 0. Any error other than io.EOF is returned with the references
// read so far. capHint, when positive, pre-sizes the slice so callers that
// know the stream length (or its cap) avoid append-growth copies; when max
// is also set the allocation never exceeds max.
func Collect(r Reader, max, capHint int) ([]Ref, error) {
	var out []Ref
	if capHint > 0 {
		if max > 0 && capHint > max {
			capHint = max
		}
		out = make([]Ref, 0, capHint)
	}
	return Append(out, r, max)
}

// Append is Collect into a caller's slice: it appends r's references to
// dst, stopping at io.EOF or after max references when max > 0, and
// returns the extended slice. A dst with room for the whole stream fills
// without allocating.
func Append(dst []Ref, r Reader, max int) ([]Ref, error) {
	for n := 0; max <= 0 || n < max; n++ {
		ref, err := r.Read()
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
		dst = append(dst, ref)
	}
	return dst, nil
}

// Borrow returns the rest of r's stream as a slice, leaving r at EOF. When
// r is a Slicer that can share its backing slice (a SliceReader, or a
// ContextReader over one whose context is live) the result is that slice,
// not a copy, and the caller must not mutate it; otherwise Borrow falls back
// to Collect pre-sized with capHint, the expected stream length (0 when
// unknown).
func Borrow(r Reader, capHint int) ([]Ref, error) {
	if sl, ok := r.(Slicer); ok {
		if refs, ok := sl.RestSlice(); ok {
			return refs, nil
		}
	}
	return Collect(r, 0, capHint)
}

// Copy streams up to max references (all of them if max <= 0) from r to w
// and returns the number copied.
func Copy(w Writer, r Reader, max int) (int, error) {
	n := 0
	for max <= 0 || n < max {
		ref, err := r.Read()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if err := w.Write(ref); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// ErrStopped is returned by readers that were explicitly terminated.
var ErrStopped = errors.New("trace: reader stopped")
