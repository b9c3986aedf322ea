package bpmax

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/bpmax-go/bpmax/internal/bufpool"
	"github.com/bpmax-go/bpmax/internal/metrics"
	"github.com/bpmax-go/bpmax/internal/rna"
	"github.com/bpmax-go/bpmax/internal/score"
	"github.com/bpmax-go/bpmax/internal/semiring"
	"github.com/bpmax-go/bpmax/internal/tri"
)

// Pool recycles the per-fold state that otherwise dominates a screening
// workload's allocation profile: the Θ(N²M²) F table and windowed band
// (size-classed float32 arenas with exact retained-byte accounting, see
// bufpool), and the small fixed-shape shells — Problem (with its sequence
// buffers and O(N²) side tables), FTable, WTable and solver (with its
// hoisted task closures) — on sync.Pool freelists.
//
// Correctness contract: a pooled fold is bit-identical to a fresh one.
// Every float32 buffer leaves the arena zeroed, sequence and score storage
// is fully overwritten on reuse, and the Nussinov tables are re-zeroed by
// Reset, so no state can leak from one fold into the next — including after
// a cancelled or a panicked fold, whose buffers either return through the
// normal error path or are abandoned to the garbage collector (the pool
// simply misses; it is never poisoned).
//
// The zero value is ready to use and safe for concurrent use.
//
// The arenas come in two element widths: the float32 set serves the
// max-plus tables (the historical hot path, untouched by the algebra
// refactor) and the float64 set serves the partition tables and the
// scaled fill's per-fold factor scratch.
// Each scalar has its own buffer arena and shell freelists so a mixed
// workload never cross-pollutes classes; the reuse counters are shared
// (a shell is a shell).
type Pool struct {
	buf       bufpool.Pool
	buf64     bufpool.PoolOf[float64]
	problems  sync.Pool // *Problem
	ftables   sync.Pool // *FTable
	ftables64 sync.Pool // *FTableOf[float64]
	wtables   sync.Pool // *WTable
	solvers   sync.Pool // *solver
	solvers64 sync.Pool // *gsolver[float64]

	// Reuse counters per shell kind (hit = recycled shell, miss = fresh
	// allocation). One atomic add per fold per kind; always on.
	problemHits, problemMisses atomic.Int64
	ftableHits, ftableMisses   atomic.Int64
	wtableHits, wtableMisses   atomic.Int64
	solverHits, solverMisses   atomic.Int64
}

// count increments hit or miss depending on whether the sync.Pool served a
// recycled shell.
func count(hit, miss *atomic.Int64, reused bool) {
	if reused {
		hit.Add(1)
	} else {
		miss.Add(1)
	}
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// SequenceError reports an invalid input sequence from the pooled problem
// constructor; Index is 1 or 2. The public API maps it onto the same error
// text the unpooled path produces.
type SequenceError struct {
	Index int
	Err   error
}

func (e *SequenceError) Error() string {
	return fmt.Sprintf("sequence %d: %v", e.Index, e.Err)
}

func (e *SequenceError) Unwrap() error { return e.Err }

// NewProblem is NewProblem building from raw strings into pooled storage.
// The returned problem must be handed back with Problem.Release once its
// tables are no longer referenced.
func (pl *Pool) NewProblem(seq1, seq2 string, params score.Params) (*Problem, error) {
	p, err := pl.NewProblemShell(seq1, seq2, params)
	if err != nil {
		return nil, err
	}
	p.BuildS1()
	p.BuildS2()
	return p, nil
}

// NewProblemShell is NewProblem without the two O(n³) Nussinov fills; the
// caller follows up with BuildS1/BuildS2 or installs cached tables via
// ShareS1/ShareS2. A recycled shell that previously ran with shared cached
// tables gets its own (parked) tables restored first, so a shared table is
// never mutated by reuse.
func (pl *Pool) NewProblemShell(seq1, seq2 string, params score.Params) (*Problem, error) {
	p, _ := pl.problems.Get().(*Problem)
	count(&pl.problemHits, &pl.problemMisses, p != nil)
	if p == nil {
		p = &Problem{}
	}
	p.restoreOwnTables()
	var err error
	p.Seq1, p.seqBuf1, err = rna.NewInto(p.seqBuf1, seq1)
	if err != nil {
		pl.problems.Put(p)
		return nil, &SequenceError{Index: 1, Err: err}
	}
	p.Seq2, p.seqBuf2, err = rna.NewInto(p.seqBuf2, seq2)
	if err != nil {
		pl.problems.Put(p)
		return nil, &SequenceError{Index: 2, Err: err}
	}
	n1, n2 := p.Seq1.Len(), p.Seq2.Len()
	if n1 == 0 || n2 == 0 {
		pl.problems.Put(p)
		return nil, fmt.Errorf("bpmax: both sequences must be non-empty (got %d and %d nt)", n1, n2)
	}
	p.N1, p.N2 = n1, n2
	if p.Tab == nil {
		p.Tab = &score.Tables{}
	}
	score.BuildInto(p.Tab, p.Seq1, p.Seq2, params)
	p.subMax, p.subInt = params.Model.IntegerBounded()
	p.pl = pl
	return p, nil
}

// NewFTable is NewFTable drawing the table storage from the pool's arenas
// (zeroed, so the result is indistinguishable from a fresh allocation).
// Release returns it.
func (pl *Pool) NewFTable(n1, n2 int, kind MapKind) *FTable {
	f, _ := pl.ftables.Get().(*FTable)
	count(&pl.ftableHits, &pl.ftableMisses, f != nil)
	if f == nil {
		f = &FTable{}
	}
	// Reuse the shell's interface-boxed inner map when the shape repeats —
	// the common case in a screening batch — to keep the steady state free
	// of even the boxing allocation.
	if f.Inner == nil || f.N2 != n2 || f.kind != kind {
		f.Inner = kind.mapFor(n2)
		f.isize = f.Inner.Size()
		f.kind = kind
	}
	f.N1, f.N2 = n1, n2
	f.data = pl.buf.Get(tri.Count(n1) * f.isize)
	f.pl = pl
	return f
}

// NewWTable is NewWTable drawing the band storage from the pool's arenas.
func (pl *Pool) NewWTable(n1, n2, w1, w2 int) *WTable {
	w, _ := pl.wtables.Get().(*WTable)
	count(&pl.wtableHits, &pl.wtableMisses, w != nil)
	if w == nil {
		w = &WTable{}
	}
	initWTable(w, n1, n2, w1, w2)
	w.data = pl.buf.Get(w.outer.Size() * w.isize)
	w.pl = pl
	return w
}

// getSolver returns a recycled solver shell (its hoisted task closures, if
// already built, come along, so repeat folds allocate no closures).
func (pl *Pool) getSolver() *solver {
	s, _ := pl.solvers.Get().(*solver)
	count(&pl.solverHits, &pl.solverMisses, s != nil)
	if s == nil {
		s = &solver{}
	}
	return s
}

func (pl *Pool) putSolver(s *solver) { pl.solvers.Put(s) }

// poolNewFTable is the generic pooled table constructor: it routes the
// request to the element type's arena (Go methods cannot take type
// parameters, so the per-scalar arenas are reached through free functions
// that type-switch once per call). Scalars outside the two supported
// instantiations fall back to an unpooled table.
func poolNewFTable[T semiring.Scalar](pl *Pool, n1, n2 int, kind MapKind) *FTableOf[T] {
	var zero T
	switch any(zero).(type) {
	case float32:
		return any(pl.NewFTable(n1, n2, kind)).(*FTableOf[T])
	case float64:
		f, _ := pl.ftables64.Get().(*FTableOf[float64])
		count(&pl.ftableHits, &pl.ftableMisses, f != nil)
		if f == nil {
			f = &FTableOf[float64]{}
		}
		if f.Inner == nil || f.N2 != n2 || f.kind != kind {
			f.Inner = kind.mapFor(n2)
			f.isize = f.Inner.Size()
			f.kind = kind
		}
		f.N1, f.N2 = n1, n2
		f.scaled, f.logS1, f.logS2 = false, 0, 0
		f.data = pl.buf64.Get(tri.Count(n1) * f.isize)
		f.pl = pl
		return any(f).(*FTableOf[T])
	}
	return NewFTableOf[T](n1, n2, kind)
}

// poolGetSolver is getSolver routed by element type; see poolNewFTable.
func poolGetSolver[T semiring.Scalar](pl *Pool) *gsolver[T] {
	var zero T
	switch any(zero).(type) {
	case float32:
		return any(pl.getSolver()).(*gsolver[T])
	case float64:
		s, _ := pl.solvers64.Get().(*gsolver[float64])
		count(&pl.solverHits, &pl.solverMisses, s != nil)
		if s == nil {
			s = &gsolver[float64]{}
		}
		return any(s).(*gsolver[T])
	}
	return &gsolver[T]{}
}

// poolPutSolver is putSolver routed by element type; shells of unsupported
// scalars are dropped to the garbage collector.
func poolPutSolver[T semiring.Scalar](pl *Pool, s *gsolver[T]) {
	switch t := any(s).(type) {
	case *solver:
		pl.putSolver(t)
	case *gsolver[float64]:
		pl.solvers64.Put(t)
	}
}

// RetainedBytes returns the bytes currently parked in the pool's scalar
// arenas (both element widths) — the storage WithMemoryLimit must count
// against its budget. The struct shells and their O(N²) side tables live on
// GC-managed sync.Pool freelists and are not counted; the F tables dominate
// by orders of magnitude at any size where budgeting matters.
func (pl *Pool) RetainedBytes() int64 {
	return pl.buf.RetainedBytes() + pl.buf64.RetainedBytes()
}

// Trim releases every idle pooled buffer (both element widths) to the
// garbage collector and returns how many bytes were freed.
func (pl *Pool) Trim() int64 { return pl.buf.Trim() + pl.buf64.Trim() }

// ChargeBytes returns the arena bytes the pool would hold after serving a
// full-table max-plus fold of an n1 × n2 problem under the given map:
// current idle retention (both element widths), plus the class-rounded
// table size when no idle buffer of that class is available to reuse. The
// degradation ladder budgets pooled folds with this instead of the exact
// EstimateBytes, because the pool retains class-rounded buffers.
func (pl *Pool) ChargeBytes(n1, n2 int, kind MapKind) int64 {
	if n1 <= 0 || n2 <= 0 {
		return pl.RetainedBytes()
	}
	return pl.buf.HeldBytesAfter(tri.Count(n1)*kind.mapFor(n2).Size()) + pl.buf64.RetainedBytes()
}

// Stats snapshots the pool's reuse counters and the arenas' buffer
// statistics. Counters are cumulative since the pool was created. The two
// scalar arenas are summed into one BufferStats (RetainedHighWater is the
// sum of the per-arena high-waters — an upper bound on the true combined
// high-water, which the arenas do not track jointly).
func (pl *Pool) Stats() metrics.PoolStats {
	b32 := pl.buf.Stats()
	b64 := pl.buf64.Stats()
	return metrics.PoolStats{
		ProblemHits:   pl.problemHits.Load(),
		ProblemMisses: pl.problemMisses.Load(),
		FTableHits:    pl.ftableHits.Load(),
		FTableMisses:  pl.ftableMisses.Load(),
		WTableHits:    pl.wtableHits.Load(),
		WTableMisses:  pl.wtableMisses.Load(),
		SolverHits:    pl.solverHits.Load(),
		SolverMisses:  pl.solverMisses.Load(),
		Buffers: metrics.BufferStats{
			Gets:              b32.Gets + b64.Gets,
			Hits:              b32.Hits + b64.Hits,
			Misses:            b32.Misses + b64.Misses,
			Puts:              b32.Puts + b64.Puts,
			Drops:             b32.Drops + b64.Drops,
			Live:              b32.Live + b64.Live,
			RetainedBytes:     b32.RetainedBytes + b64.RetainedBytes,
			RetainedHighWater: b32.RetainedHighWater + b64.RetainedHighWater,
		},
	}
}

// ChargeWindowedBytes is ChargeBytes for the banded table of a windowed
// scan.
func (pl *Pool) ChargeWindowedBytes(n1, n2, w1, w2 int) int64 {
	if n1 <= 0 || n2 <= 0 || w1 <= 0 || w2 <= 0 {
		return pl.RetainedBytes()
	}
	var w WTable
	initWTable(&w, n1, n2, w1, w2)
	return pl.buf.HeldBytesAfter(w.outer.Size()*w.isize) + pl.buf64.RetainedBytes()
}

// ChargeBytes64 is ChargeBytes for the float64 partition table arena: the
// bytes the pool would hold (both arenas) after serving a partition fold of
// an n1 × n2 problem under the given map.
func (pl *Pool) ChargeBytes64(n1, n2 int, kind MapKind) int64 {
	if n1 <= 0 || n2 <= 0 {
		return pl.RetainedBytes()
	}
	return pl.buf.RetainedBytes() + pl.buf64.HeldBytesAfter(tri.Count(n1)*kind.mapFor(n2).Size())
}
