package trace

import (
	"context"
	"errors"
	"io"
	"testing"
)

func TestKindString(t *testing.T) {
	cases := []struct {
		k    Kind
		want string
	}{
		{IFetch, "i"}, {Read, "r"}, {Write, "w"}, {Kind(9), "Kind(9)"},
	}
	for _, c := range cases {
		if got := c.k.String(); got != c.want {
			t.Errorf("Kind(%d).String() = %q, want %q", c.k, got, c.want)
		}
	}
}

func TestKindPredicates(t *testing.T) {
	if !IFetch.Valid() || !Read.Valid() || !Write.Valid() {
		t.Error("defined kinds must be valid")
	}
	if Kind(3).Valid() {
		t.Error("Kind(3) must be invalid")
	}
	if IFetch.IsData() {
		t.Error("IFetch is not data")
	}
	if !Read.IsData() || !Write.IsData() {
		t.Error("Read and Write are data")
	}
}

func TestRefLine(t *testing.T) {
	cases := []struct {
		addr uint64
		line int
		want uint64
	}{
		{0, 16, 0},
		{15, 16, 0},
		{16, 16, 1},
		{0x1234, 16, 0x123},
		{0x1234, 4, 0x48d},
		{7, 1, 7},
	}
	for _, c := range cases {
		r := Ref{Addr: c.addr}
		if got := r.Line(c.line); got != c.want {
			t.Errorf("Ref{%#x}.Line(%d) = %#x, want %#x", c.addr, c.line, got, c.want)
		}
	}
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024, 1 << 30} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -1, -2, 3, 6, 1000} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}

func TestSliceReader(t *testing.T) {
	refs := []Ref{{Addr: 1}, {Addr: 2}, {Addr: 3}}
	r := NewSliceReader(refs)
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	for i := 0; i < 3; i++ {
		got, err := r.Read()
		if err != nil || got.Addr != uint64(i+1) {
			t.Fatalf("Read %d = %+v, %v", i, got, err)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("exhausted Read err = %v, want io.EOF", err)
	}
	r.Reset()
	got, err := r.Read()
	if err != nil || got.Addr != 1 {
		t.Fatalf("after Reset: %+v, %v", got, err)
	}
}

func TestRecorder(t *testing.T) {
	var rec Recorder
	for i := 0; i < 5; i++ {
		if err := rec.Write(Ref{Addr: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	rd := rec.Reader()
	got, err := Collect(rd, 0, 0)
	if err != nil || len(got) != 5 {
		t.Fatalf("Collect = %d refs, %v", len(got), err)
	}
	for i, r := range got {
		if r.Addr != uint64(i) {
			t.Errorf("ref %d addr = %d", i, r.Addr)
		}
	}
}

func TestCollectMax(t *testing.T) {
	r := NewSliceReader(make([]Ref, 10))
	got, err := Collect(r, 4, 0)
	if err != nil || len(got) != 4 {
		t.Fatalf("Collect(max=4) = %d, %v", len(got), err)
	}
}

func TestCollectCapHint(t *testing.T) {
	refs := make([]Ref, 100)
	// An accurate hint materializes the stream in one allocation.
	got, err := Collect(NewSliceReader(refs), 0, 100)
	if err != nil || len(got) != 100 {
		t.Fatalf("Collect(hint=100) = %d, %v", len(got), err)
	}
	if cap(got) != 100 {
		t.Errorf("cap = %d, want exactly 100", cap(got))
	}
	// A hint beyond max is clamped: never allocate more than max refs.
	got, err = Collect(NewSliceReader(refs), 10, 1000)
	if err != nil || len(got) != 10 {
		t.Fatalf("Collect(max=10, hint=1000) = %d, %v", len(got), err)
	}
	if cap(got) != 10 {
		t.Errorf("cap = %d, want clamp to max 10", cap(got))
	}
	// An undersized hint still collects everything.
	got, err = Collect(NewSliceReader(refs), 0, 7)
	if err != nil || len(got) != 100 {
		t.Fatalf("Collect(hint=7) = %d, %v", len(got), err)
	}
}

func TestCollectError(t *testing.T) {
	boom := errors.New("boom")
	n := 0
	r := ReaderFunc(func() (Ref, error) {
		n++
		if n > 2 {
			return Ref{}, boom
		}
		return Ref{Addr: uint64(n)}, nil
	})
	got, err := Collect(r, 0, 0)
	if err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if len(got) != 2 {
		t.Fatalf("partial refs = %d, want 2", len(got))
	}
}

func TestCopy(t *testing.T) {
	src := NewSliceReader([]Ref{{Addr: 1}, {Addr: 2}, {Addr: 3}})
	var rec Recorder
	n, err := Copy(&rec, src, 2)
	if err != nil || n != 2 || len(rec.Refs) != 2 {
		t.Fatalf("Copy = %d, %v (%d recorded)", n, err, len(rec.Refs))
	}
	n, err = Copy(&rec, src, 0)
	if err != nil || n != 1 {
		t.Fatalf("Copy rest = %d, %v", n, err)
	}
}

type failWriter struct{}

func (failWriter) Write(Ref) error { return errors.New("disk full") }

func TestCopyWriterError(t *testing.T) {
	src := NewSliceReader([]Ref{{Addr: 1}})
	if _, err := Copy(failWriter{}, src, 0); err == nil {
		t.Fatal("want writer error")
	}
}

func TestReaderFunc(t *testing.T) {
	called := false
	r := ReaderFunc(func() (Ref, error) {
		called = true
		return Ref{Addr: 42}, nil
	})
	got, err := r.Read()
	if !called || err != nil || got.Addr != 42 {
		t.Fatalf("ReaderFunc: %+v, %v (called=%v)", got, err, called)
	}
}

func TestSliceReaderSkip(t *testing.T) {
	refs := []Ref{{Addr: 1}, {Addr: 2}, {Addr: 3}, {Addr: 4}}
	r := NewSliceReader(refs)
	if n, err := r.Skip(0); n != 0 || err != nil {
		t.Fatalf("Skip(0) = %d, %v", n, err)
	}
	if n, err := r.Skip(2); n != 2 || err != nil {
		t.Fatalf("Skip(2) = %d, %v", n, err)
	}
	got, err := r.Read()
	if err != nil || got.Addr != 3 {
		t.Fatalf("Read after Skip = %+v, %v, want Addr 3", got, err)
	}
	// Skipping past the end is clamped, not an error.
	if n, err := r.Skip(10); n != 1 || err != nil {
		t.Fatalf("Skip(10) = %d, %v, want 1", n, err)
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("exhausted Read err = %v, want io.EOF", err)
	}
}

func TestSliceReaderRestSlice(t *testing.T) {
	refs := []Ref{{Addr: 1}, {Addr: 2}, {Addr: 3}}
	r := NewSliceReader(refs)
	if _, err := r.Read(); err != nil {
		t.Fatal(err)
	}
	rest, ok := r.RestSlice()
	if !ok || len(rest) != 2 || rest[0].Addr != 2 {
		t.Fatalf("RestSlice = %+v, %v", rest, ok)
	}
	// A view of the backing slice, not a copy.
	if &rest[0] != &refs[1] {
		t.Error("RestSlice must share the backing array")
	}
	// The reader is left drained, as if Read had consumed the rest.
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("Read after RestSlice err = %v, want io.EOF", err)
	}
	if rest, ok := r.RestSlice(); !ok || len(rest) != 0 {
		t.Fatalf("second RestSlice = %+v, %v, want empty, true", rest, ok)
	}
}

func TestContextReaderSkipAndRestSlice(t *testing.T) {
	refs := []Ref{{Addr: 1}, {Addr: 2}, {Addr: 3}, {Addr: 4}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := NewContextReader(ctx, NewSliceReader(refs))
	sk, ok := r.(Skipper)
	if !ok {
		t.Fatal("ContextReader must implement Skipper")
	}
	if n, err := sk.Skip(2); n != 2 || err != nil {
		t.Fatalf("Skip = %d, %v", n, err)
	}
	rest, ok := r.(Slicer).RestSlice()
	if !ok || len(rest) != 2 || rest[0].Addr != 3 {
		t.Fatalf("RestSlice = %+v, %v", rest, ok)
	}
	// After cancellation: Skip errors, RestSlice declines.
	r2 := NewContextReader(ctx, NewSliceReader(refs))
	cancel()
	if _, err := r2.(Skipper).Skip(1); err == nil {
		t.Error("Skip after cancel must fail")
	}
	if _, ok := r2.(Slicer).RestSlice(); ok {
		t.Error("RestSlice after cancel must decline")
	}
}

func TestContextReaderSkipFallback(t *testing.T) {
	// An inner reader without Skip: the wrapper discards one Read at a time
	// and converts EOF into a short count.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inner := NewSliceReader([]Ref{{Addr: 1}, {Addr: 2}, {Addr: 3}})
	r := NewContextReader(ctx, ReaderFunc(inner.Read))
	if n, err := r.(Skipper).Skip(2); n != 2 || err != nil {
		t.Fatalf("Skip = %d, %v", n, err)
	}
	if n, err := r.(Skipper).Skip(5); n != 1 || err != nil {
		t.Fatalf("Skip past EOF = %d, %v, want 1, nil", n, err)
	}
	if _, ok := r.(Slicer).RestSlice(); ok {
		t.Error("RestSlice over a non-Slicer inner reader must decline")
	}
}

func TestBorrow(t *testing.T) {
	refs := []Ref{{Addr: 1}, {Addr: 2}, {Addr: 3}, {Addr: 4}}

	// A SliceReader read part-way lends exactly the rest, without a copy.
	sr := NewSliceReader(refs)
	if _, err := sr.Read(); err != nil {
		t.Fatal(err)
	}
	got, err := Borrow(sr, 0)
	if err != nil || len(got) != 3 || &got[0] != &refs[1] {
		t.Fatalf("Borrow(part-read SliceReader) = %+v, %v, want a view of refs[1:]", got, err)
	}
	if _, err := sr.Read(); err != io.EOF {
		t.Fatalf("Read after Borrow err = %v, want io.EOF", err)
	}

	// A cancelled ContextReader declines the borrow, and the fallback
	// collect surfaces the context's error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Borrow(NewContextReader(ctx, NewSliceReader(refs)), len(refs)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Borrow(cancelled ContextReader) err = %v, want context.Canceled", err)
	}

	// A reader that is not a Slicer is collected, sized by an exact hint in
	// one allocation.
	inner := NewSliceReader(refs)
	got, err = Borrow(ReaderFunc(inner.Read), len(refs))
	if err != nil || len(got) != len(refs) || got[3].Addr != 4 {
		t.Fatalf("Borrow(ReaderFunc) = %+v, %v", got, err)
	}
	if cap(got) != len(got) {
		t.Errorf("cap = %d, want exactly %d", cap(got), len(got))
	}
	if &got[0] == &refs[0] {
		t.Error("a non-Slicer reader cannot lend its backing slice")
	}
}
