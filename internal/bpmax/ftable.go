package bpmax

import (
	"fmt"
	"unsafe"

	"github.com/bpmax-go/bpmax/internal/semiring"
	"github.com/bpmax-go/bpmax/internal/tri"
)

// MapKind selects the inner-triangle memory map (the paper's Fig 10
// comparison).
type MapKind int

const (
	// MapBox is option 1: each inner triangle occupies its N2×N2 bounding
	// box. ~2× the memory, but rows are plain row-major slices. The paper
	// found this option always faster; it is the default.
	MapBox MapKind = iota
	// MapPacked is option 2: (i2, j2) -> (i2, j2-i2) packed rows using
	// exactly N2(N2+1)/2 slots per triangle (the quarter-space map).
	MapPacked
)

// String returns the benchmark label for the map kind.
func (k MapKind) String() string {
	switch k {
	case MapBox:
		return "box"
	case MapPacked:
		return "packed"
	}
	return fmt.Sprintf("MapKind(%d)", int(k))
}

func (k MapKind) mapFor(n2 int) tri.Map {
	switch k {
	case MapBox:
		return tri.BoxMap{N: n2}
	case MapPacked:
		return tri.PackedMap{N: n2}
	}
	panic(fmt.Sprintf("bpmax: unknown MapKind %d", int(k)))
}

// elemBytes returns the storage size of one table element.
func elemBytes[T semiring.Scalar]() int64 {
	var z T
	return int64(unsafe.Sizeof(z))
}

// FTable is the float32 instantiation — the historical name used by every
// max-plus call site, the traceback, and the result cache.
type FTable = FTableOf[float32]

// FTableOf stores F[i1,j1,i2,j2] for all 0<=i1<=j1<N1, 0<=i2<=j2<N2: a
// packed triangle of inner triangles. The inner map is pluggable; the outer
// map is always packed row-major (outer triangles are touched
// block-at-a-time, so bounding-box padding would buy nothing there). The
// element type is the solving semiring's scalar: float32 for max-plus,
// float64 for the partition fill (either domain).
type FTableOf[T semiring.Scalar] struct {
	N1, N2 int
	Inner  tri.Map
	isize  int
	data   []T
	// kind remembers which MapKind built Inner so a pooled shell can reuse
	// the boxed map when the shape repeats; pl is the owning pool (nil for
	// fresh allocations).
	kind MapKind
	pl   *Pool
	// scaled marks a partition table filled in the scaled probability
	// domain: a cell holds Z·e^{-(len1·logS1 + len2·logS2)}, where len1 and
	// len2 are the cell's interval lengths. PartitionLogAt undoes the scale
	// on read; log-domain and max-plus tables leave these zero.
	scaled       bool
	logS1, logS2 float64
}

// NewFTable allocates a zeroed float32 table.
func NewFTable(n1, n2 int, kind MapKind) *FTable {
	return NewFTableOf[float32](n1, n2, kind)
}

// NewFTableOf allocates a zeroed table with the given element type.
func NewFTableOf[T semiring.Scalar](n1, n2 int, kind MapKind) *FTableOf[T] {
	inner := kind.mapFor(n2)
	isize := inner.Size()
	return &FTableOf[T]{
		N1:    n1,
		N2:    n2,
		Inner: inner,
		isize: isize,
		kind:  kind,
		data:  make([]T, tri.Count(n1)*isize),
	}
}

// Release returns a pooled table's storage and shell to its pool. It is
// idempotent and a no-op for unpooled tables; the table must not be used
// after Release. The type switch on the shell pointer routes the buffer to
// the element type's arena without boxing the slice (pointer-to-interface
// conversions don't allocate, so pooled folds keep their steady state).
func (f *FTableOf[T]) Release() {
	if f == nil || f.pl == nil {
		return
	}
	pl := f.pl
	f.pl = nil
	switch t := any(f).(type) {
	case *FTable:
		pl.buf.Put(t.data)
		t.data = nil
		pl.ftables.Put(t)
	case *FTableOf[float64]:
		pl.buf64.Put(t.data)
		t.data = nil
		pl.ftables64.Put(t)
	}
}

// Block returns the storage of inner triangle (i1, j1). Index cell (i2, j2)
// within it via Inner.At or Row.
func (f *FTableOf[T]) Block(i1, j1 int) []T {
	o := tri.Index(i1, j1, f.N1)
	return f.data[o*f.isize : (o+1)*f.isize : (o+1)*f.isize]
}

// Row returns the slice of block such that row[j2] addresses cell (i2, j2)
// for j2 in [i2, hi); hi is N2 for the full row. The returned slice is
// indexed by absolute j2 (cell (i2,j2) at row[j2]) — both provided maps are
// row-affine with stride 1, so this is a reslice, not a copy.
func (f *FTableOf[T]) Row(block []T, i2 int) []T {
	base, _ := f.Inner.RowSlice(i2)
	return block[base : base+f.N2]
}

// At returns F[i1,j1,i2,j2] for a stored cell (all indices in-triangle).
// Boundary cases (empty intervals) are the Problem's job, not the table's.
func (f *FTableOf[T]) At(i1, j1, i2, j2 int) T {
	return f.Block(i1, j1)[f.Inner.At(i2, j2)]
}

// Set stores F[i1,j1,i2,j2].
func (f *FTableOf[T]) Set(i1, j1, i2, j2 int, v T) {
	f.Block(i1, j1)[f.Inner.At(i2, j2)] = v
}

// Bytes returns the storage footprint in bytes.
func (f *FTableOf[T]) Bytes() int64 { return int64(len(f.data)) * elemBytes[T]() }

// at is the recurrence's full F accessor over a filled table: it resolves
// the empty-interval base cases through the problem's S tables. j1 < i1
// (empty seq1 interval) yields S²[i2,j2]; j2 < i2 yields S¹[i1,j1].
func (p *Problem) at(f *FTable, i1, j1, i2, j2 int) float32 {
	if j1 < i1 {
		return p.S2.At(i2, j2)
	}
	if j2 < i2 {
		return p.S1.At(i1, j1)
	}
	return f.At(i1, j1, i2, j2)
}
