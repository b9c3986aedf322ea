package bpmax

import (
	"github.com/bpmax-go/bpmax/internal/semiring"
)

// solver is the float32 (max-plus) instantiation of the generic solver —
// the historical name used by the pool, the DMP schedules and the tests.
type solver = gsolver[float32]

// gsolver carries the state shared by the optimized schedules: the
// problem, the algebra view (kernels + tables in the semiring's scalar),
// the table being filled, the resolved configuration, and the selected
// streaming kernel. The schedules themselves (wavefront order, task
// decomposition, tiling) are algebra-agnostic; only the innermost streams
// (acc, via the kernel bundle) and the per-cell finalize (finalizeBlk,
// specialized for float32 max-plus) touch scalars.
type gsolver[T semiring.Scalar] struct {
	p   *Problem
	a   alg[T]
	f   *FTableOf[T]
	cfg Config
	acc func(y, x []T, a T)

	// Per-wavefront state read by the hoisted task closures below. The
	// schedules used to allocate fresh closures on every wavefront —
	// O(N1) allocations per fold; binding them once to the solver (which
	// the pool recycles) makes repeat folds closure-allocation-free.
	curD1        int
	curI1, curJ1 int
	curTileW     int
	curTilesPT   int
	scratch      *FTableOf[T]

	triTask        func(i1 int) // coarse: one whole triangle of wavefront curD1
	finTask        func(i1 int) // hybrid/tiled phase B: finalize one triangle
	rowAllTask     func(t int)  // hybrid phase A: one row across the wavefront
	rowFineTask    func(i2 int) // fine: one row of triangle (curI1, curJ1)
	tileTask       func(t int)  // hybrid-tiled phase A: one row tile
	scratchRowTask func(t int)  // scratch ablation phase A
	scratchFinTask func(i1 int) // scratch ablation phase B: copy + finalize
	// finalizeBlk is the R1/R2+update pass for one triangle. The float32
	// instantiation binds the hand-specialized max-plus body (branchy
	// compares, no indirect ⊕ calls in the cell loop) so the hot path costs
	// exactly what it did before the algebra became a type parameter. The
	// float64 instantiation serves both partition views, so its closure
	// picks per triangle: the specialised sum-product body for the scaled
	// probability domain, the generic body for the log domain.
	finalizeBlk func(blk []T, i1, j1 int)
}

// initTasks builds the reusable task closures. Called once per solver shell
// lifetime; the closures read the solver's cur* fields, so reassigning
// those retargets every schedule without reallocating.
func (s *gsolver[T]) initTasks() {
	s.triTask = func(i1 int) { s.computeTriangleSequential(i1, i1+s.curD1) }
	s.finTask = func(i1 int) {
		j1 := i1 + s.curD1
		s.finalizeBlk(s.f.Block(i1, j1), i1, j1)
	}
	s.rowAllTask = func(t int) {
		i1 := t / s.p.N2
		s.accumulateRowTask(i1, i1+s.curD1, t%s.p.N2)
	}
	s.rowFineTask = func(i2 int) { s.accumulateRowTask(s.curI1, s.curJ1, i2) }
	s.tileTask = func(t int) {
		i1 := t / s.curTilesPT
		r0 := (t % s.curTilesPT) * s.curTileW
		r1 := r0 + s.curTileW
		if r1 > s.p.N2 {
			r1 = s.p.N2
		}
		s.accumulateTileTask(i1, i1+s.curD1, r0, r1)
	}
	s.scratchRowTask = func(t int) {
		i1 := t / s.p.N2
		i2 := t % s.p.N2
		j1 := i1 + s.curD1
		if h := s.cfg.triangleHook; h != nil && i2 == 0 {
			h(i1, j1)
		}
		// Row addressing depends only on the shared inner map, so the
		// solver's row helpers work on scratch blocks directly.
		blk := s.scratch.Block(i1, j1)
		s.initRow(blk, i1, j1, i2)
		for k1 := i1; k1 < j1; k1++ {
			s.accumulateRow(blk, s.f.Block(i1, k1), s.f.Block(k1+1, j1), i1, j1, k1, i2)
		}
	}
	s.scratchFinTask = func(i1 int) {
		j1 := i1 + s.curD1
		copy(s.f.Block(i1, j1), s.scratch.Block(i1, j1))
		s.finalizeBlk(s.f.Block(i1, j1), i1, j1)
	}
	switch sp := any(s).(type) {
	case *solver:
		fb := func(blk []float32, i1, j1 int) { finalizeMaxPlusTriangle(sp, blk, i1, j1) }
		s.finalizeBlk = any(fb).(func(blk []T, i1, j1 int))
	case *gsolver[float64]:
		fb := func(blk []float64, i1, j1 int) {
			if sp.a.prob {
				finalizeSumProductTriangle(sp, blk, i1, j1)
				return
			}
			sp.finalizeGeneric(blk, i1, j1)
		}
		s.finalizeBlk = any(fb).(func(blk []T, i1, j1 int))
	default:
		s.finalizeBlk = s.finalizeGeneric
	}
}

// newGSolver assembles a solver over an explicit algebra view. The float32
// shells and table storage come from the pool's float32 arenas, float64
// from the float64 arenas; both reuse paths keep the closure set hoisted.
func newGSolver[T semiring.Scalar](p *Problem, a alg[T], cfg Config, kind MapKind) *gsolver[T] {
	cfg = cfg.withDefaults()
	var s *gsolver[T]
	if cfg.Pool != nil {
		s = poolGetSolver[T](cfg.Pool)
		s.f = poolNewFTable[T](cfg.Pool, p.N1, p.N2, kind)
	} else {
		s = &gsolver[T]{}
		s.f = NewFTableOf[T](p.N1, p.N2, kind)
	}
	s.p = p
	s.a = a
	s.cfg = cfg
	s.acc = a.k.Accum
	if s.triTask == nil {
		s.initTasks()
	}
	return s
}

// newSolver is the max-plus constructor every existing float32 call site
// uses; the algebra view is the problem's own tables, so it allocates
// nothing beyond what the pre-generic solver did.
func newSolver(p *Problem, cfg Config, kind MapKind) *solver {
	return newGSolver(p, maxplusAlg(p, cfg.Unroll), cfg, kind)
}

// release recycles the solver shell after a successful solve; the filled
// table stays with the caller.
func (s *gsolver[T]) release() {
	pl := s.cfg.Pool
	s.p = nil
	s.f = nil
	s.scratch = nil
	s.a = alg[T]{}
	if pl != nil {
		poolPutSolver(pl, s)
	}
}

// abort recycles both the solver shell and its partially filled table after
// a failed solve.
func (s *gsolver[T]) abort() {
	s.f.Release()
	s.release()
}

// atF is the recurrence's full F accessor during the fill, resolving the
// empty-interval base cases through the algebra's substrate tables (the
// generic counterpart of Problem.at).
func (s *gsolver[T]) atF(i1, j1, i2, j2 int) T {
	if j1 < i1 {
		return s.a.s2At(i2, j2)
	}
	if j2 < i2 {
		return s.a.s1At(i1, j1)
	}
	return s.f.At(i1, j1, i2, j2)
}

// initRow seeds row i2 of triangle (i1, j1) with the H term
// S¹[i1,j1] ⊗ S²[i2,j2] — the "fold independently" candidate, which also
// establishes F >= One.
func (s *gsolver[T]) initRow(blk []T, i1, j1, i2 int) {
	n2 := s.a.n2
	grow := s.f.Row(blk, i2)
	s2row := s.a.s2Row(i2)
	s.a.k.MulInto(grow[i2:n2], s2row[i2:n2], s.a.s1At(i1, j1))
}

// accumulateRow applies, for one k1, the R0, R3 and R4 contributions to row
// i2 of triangle (i1, j1)'s accumulator. A = F(i1,k1) and B = F(k1+1,j1)
// are finalized triangles from strictly earlier wavefronts.
//
//	R4: G[i2,j2] ⊕= A[i2,j2]  ⊗ S¹[k1+1,j1]   (suffix of seq1 folds alone)
//	R3: G[i2,j2] ⊕= B[i2,j2]  ⊗ S¹[i1,k1]     (prefix of seq1 folds alone)
//	R0: G[i2,j2] ⊕= A[i2,k2]  ⊗ B[k2+1,j2]    (both sequences split)
//
// The R0 update for fixed (i2, k2) is one streaming ⊕⊗ over j2 — the
// paper's "matrix instance" inner loop.
func (s *gsolver[T]) accumulateRow(blk, ablk, bblk []T, i1, j1, k1, i2 int) {
	n2 := s.a.n2
	grow := s.f.Row(blk, i2)
	arow := s.f.Row(ablk, i2)
	brow := s.f.Row(bblk, i2)
	s4 := s.a.s1At(k1+1, j1)
	s3 := s.a.s1At(i1, k1)
	s.acc(grow[i2:n2], arow[i2:n2], s4)
	s.acc(grow[i2:n2], brow[i2:n2], s3)
	for k2 := i2; k2 < n2-1; k2++ {
		a := arow[k2]
		bk := s.f.Row(bblk, k2+1)
		s.acc(grow[k2+1:n2], bk[k2+1:n2], a)
	}
}

// accumulateRowsTiled is the tiled form of accumulateRow over the row range
// [r0, r1): R3/R4 stream once per row, then the R0 iteration space
// (i2 × k2 × j2) is chopped into TileK2-deep k2 bands (and optionally
// TileJ2-wide j2 bands) so that the B rows of one band stay cache-resident
// while every row of the i2 tile consumes them.
func (s *gsolver[T]) accumulateRowsTiled(blk, ablk, bblk []T, i1, j1, k1, r0, r1 int) {
	n2 := s.a.n2
	s4 := s.a.s1At(k1+1, j1)
	s3 := s.a.s1At(i1, k1)
	for i2 := r0; i2 < r1; i2++ {
		grow := s.f.Row(blk, i2)
		arow := s.f.Row(ablk, i2)
		brow := s.f.Row(bblk, i2)
		s.acc(grow[i2:n2], arow[i2:n2], s4)
		s.acc(grow[i2:n2], brow[i2:n2], s3)
	}
	tk := s.cfg.TileK2
	tj := s.cfg.TileJ2
	for k2t := r0; k2t < n2-1; k2t += tk {
		k2tEnd := k2t + tk
		if k2tEnd > n2-1 {
			k2tEnd = n2 - 1
		}
		for i2 := r0; i2 < r1; i2++ {
			grow := s.f.Row(blk, i2)
			arow := s.f.Row(ablk, i2)
			kLo := k2t
			if kLo < i2 {
				kLo = i2
			}
			for k2 := kLo; k2 < k2tEnd; k2++ {
				a := arow[k2]
				bk := s.f.Row(bblk, k2+1)
				if tj <= 0 {
					s.acc(grow[k2+1:n2], bk[k2+1:n2], a)
					continue
				}
				for j2t := k2 + 1; j2t < n2; j2t += tj {
					hi := j2t + tj
					if hi > n2 {
						hi = n2
					}
					s.acc(grow[j2t:hi], bk[j2t:hi], a)
				}
			}
		}
	}
}

// finalizeMaxPlusTriangle turns the accumulated H partials of triangle
// (i1, j1) into final F values — the hand-specialized float32 max-plus
// body, bit-identical to (and byte-for-byte copied from) the pre-generic
// finalizeTriangle. Rows run bottom-up and cells left-to-right so that
// the intra-triangle dependences (the seq2 pairing term, R1 and R2) only
// reach finalized cells; R1 and R2 are applied as streaming updates rather
// than per-cell gathers, which is exactly the loop permutation the paper's
// Table II/III schedules encode ("we ensure that the F-table gets updated
// when k2 reaches j2").
func finalizeMaxPlusTriangle(s *solver, blk []float32, i1, j1 int) {
	p := s.p
	n2 := p.N2
	sc1 := p.score1(i1, j1)
	s1Self := p.S1.At(i1, j1)
	for i2 := n2 - 1; i2 >= 0; i2-- {
		grow := s.f.Row(blk, i2)
		// R1: contributions S²[i2,k2] + F[i1,j1,k2+1,j2] from the already
		// finalized rows below, streamed over j2.
		s2row := p.S2.Row(i2)
		for k2 := i2; k2 < n2-1; k2++ {
			s.acc(grow[k2+1:n2], s.f.Row(blk, k2+1)[k2+1:n2], s2row[k2])
		}
		for j2 := i2; j2 < n2; j2++ {
			v := grow[j2]
			// Pair i1-j1 around the seq2 interval. p.at resolves the empty
			// seq1 interval (d1 < 2) to S²[i2,j2].
			if w := p.at(s.f, i1+1, j1-1, i2, j2) + sc1; w > v {
				v = w
			}
			if j2 > i2 {
				// Pair i2-j2 around the seq1 interval; the inner cell
				// degenerates to S¹[i1,j1] when the seq2 interval empties.
				inner := s1Self
				if j2-1 >= i2+1 {
					inner = s.f.Row(blk, i2+1)[j2-1]
				}
				if w := inner + p.score2(i2, j2); w > v {
					v = w
				}
			} else if i1 == j1 {
				// Singleton × singleton: the intermolecular base case.
				if w := p.singleton(i1, i2); w > v {
					v = w
				}
			}
			grow[j2] = v
			// R2: stream this finalized cell's contribution
			// F[i1,j1,i2,j2] + S²[j2+1,j2'] to the rest of the row.
			if j2 < n2-1 {
				s.acc(grow[j2+1:n2], p.S2.Row(j2 + 1)[j2+1:n2], v)
			}
		}
	}
}

// finalizeSumProductTriangle is finalizeMaxPlusTriangle over the scaled
// probability domain (⊕ = +, ⊗ = ×, float64): the same bottom-up,
// left-to-right order and the same candidate set, each ⊕ a native add and
// each ⊗ a native multiply. Every scaled factor already carries the
// per-nucleotide scale of the bases it covers (see scaledPartitionAlg), so
// the cell update needs no rescaling: the lengths of the ⊗ operands add up
// to the cell's own.
func finalizeSumProductTriangle(s *gsolver[float64], blk []float64, i1, j1 int) {
	a := &s.a
	n2 := a.n2
	sc1 := a.score1(i1, j1)
	s1Self := a.s1At(i1, j1)
	for i2 := n2 - 1; i2 >= 0; i2-- {
		grow := s.f.Row(blk, i2)
		// R1, streamed over j2 from the already finalized rows below.
		s2row := a.s2Row(i2)
		for k2 := i2; k2 < n2-1; k2++ {
			s.acc(grow[k2+1:n2], s.f.Row(blk, k2+1)[k2+1:n2], s2row[k2])
		}
		sc2row := a.sc2[i2*n2 : (i2+1)*n2]
		for j2 := i2; j2 < n2; j2++ {
			// Pair i1-j1 around the seq2 interval.
			v := grow[j2] + s.atF(i1+1, j1-1, i2, j2)*sc1
			if j2 > i2 {
				// Pair i2-j2 around the seq1 interval.
				inner := s1Self
				if j2-1 >= i2+1 {
					inner = s.f.Row(blk, i2+1)[j2-1]
				}
				v += inner * sc2row[j2]
			} else if i1 == j1 {
				// Singleton × singleton: the raw bond factor only (the
				// unpaired alternative is already in the H seed).
				v += a.inter(i1, i2)
			}
			grow[j2] = v
			// R2: stream this finalized cell's contribution onward.
			if j2 < n2-1 {
				s.acc(grow[j2+1:n2], a.s2Row(j2 + 1)[j2+1:n2], v)
			}
		}
	}
}

// finalizeGeneric is finalizeMaxPlusTriangle over an arbitrary scalar
// semiring: the same bottom-up/left-to-right order with ⊕ and ⊗ through the
// kernel bundle. Both go through func values per cell — which is why the
// hot instantiations bind specialised bodies instead; the log-domain
// partition fill, whose ⊕ costs an exp and a log1p anyway, is the one
// caller left (BenchmarkFinalizeTriangle measures the gap).
func (s *gsolver[T]) finalizeGeneric(blk []T, i1, j1 int) {
	a := &s.a
	n2 := a.n2
	add, mul := a.k.Add, a.k.Mul
	sc1 := a.score1(i1, j1)
	s1Self := a.s1At(i1, j1)
	for i2 := n2 - 1; i2 >= 0; i2-- {
		grow := s.f.Row(blk, i2)
		// R1, streamed over j2 from the already finalized rows below.
		s2row := a.s2Row(i2)
		for k2 := i2; k2 < n2-1; k2++ {
			s.acc(grow[k2+1:n2], s.f.Row(blk, k2+1)[k2+1:n2], s2row[k2])
		}
		for j2 := i2; j2 < n2; j2++ {
			v := grow[j2]
			// Pair i1-j1 around the seq2 interval.
			v = add(mul(s.atF(i1+1, j1-1, i2, j2), sc1), v)
			if j2 > i2 {
				// Pair i2-j2 around the seq1 interval.
				inner := s1Self
				if j2-1 >= i2+1 {
					inner = s.f.Row(blk, i2+1)[j2-1]
				}
				v = add(mul(inner, a.score2(i2, j2)), v)
			} else if i1 == j1 {
				// Singleton × singleton: only the raw bond weight — the
				// unpaired alternative (One) is already in the accumulator
				// via the H seed, and a summing ⊕ must not count it twice.
				v = add(a.inter(i1, i2), v)
			}
			grow[j2] = v
			// R2: stream this finalized cell's contribution onward.
			if j2 < n2-1 {
				s.acc(grow[j2+1:n2], a.s2Row(j2 + 1)[j2+1:n2], v)
			}
		}
	}
}

// computeTriangleSequential runs the whole pipeline for one triangle on the
// calling goroutine: init, accumulate over k1, finalize. This is the unit
// of work of the coarse-grain schedule.
func (s *gsolver[T]) computeTriangleSequential(i1, j1 int) {
	if h := s.cfg.triangleHook; h != nil {
		h(i1, j1)
	}
	blk := s.f.Block(i1, j1)
	n2 := s.a.n2
	for i2 := 0; i2 < n2; i2++ {
		s.initRow(blk, i1, j1, i2)
	}
	for k1 := i1; k1 < j1; k1++ {
		ablk := s.f.Block(i1, k1)
		bblk := s.f.Block(k1+1, j1)
		for i2 := 0; i2 < n2; i2++ {
			s.accumulateRow(blk, ablk, bblk, i1, j1, k1, i2)
		}
	}
	s.finalizeBlk(blk, i1, j1)
}

// accumulateRowTask runs init + the full k1 loop for a single row — the
// unit of work of the fine-grain and hybrid schedules.
func (s *gsolver[T]) accumulateRowTask(i1, j1, i2 int) {
	if h := s.cfg.triangleHook; h != nil && i2 == 0 {
		h(i1, j1)
	}
	blk := s.f.Block(i1, j1)
	s.initRow(blk, i1, j1, i2)
	for k1 := i1; k1 < j1; k1++ {
		s.accumulateRow(blk, s.f.Block(i1, k1), s.f.Block(k1+1, j1), i1, j1, k1, i2)
	}
}

// accumulateTileTask runs init + the full k1 loop for the row tile
// [r0, r1) — the unit of work of the hybrid-tiled schedule.
func (s *gsolver[T]) accumulateTileTask(i1, j1, r0, r1 int) {
	if h := s.cfg.triangleHook; h != nil && r0 == 0 {
		h(i1, j1)
	}
	blk := s.f.Block(i1, j1)
	for i2 := r0; i2 < r1; i2++ {
		s.initRow(blk, i1, j1, i2)
	}
	for k1 := i1; k1 < j1; k1++ {
		s.accumulateRowsTiled(blk, s.f.Block(i1, k1), s.f.Block(k1+1, j1), i1, j1, k1, r0, r1)
	}
}
