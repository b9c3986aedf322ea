package bpmax

import (
	"github.com/bpmax-go/bpmax/internal/semiring"
)

// alg is the solver's per-solve view of one scalar semiring: the streaming
// kernels plus the problem's score and substrate tables already expressed
// in the semiring's scalar and ⊗ scale. The generic fill never touches
// Problem's float32 tables directly — it reads these slices — so the same
// schedule code serves (max, +) over float32 and both partition views
// (log-sum-exp and scaled sum-product) over float64.
//
// ⊗ differs between instantiations: it is scalar addition for max-plus and
// for the log-domain partition semiring, and multiplication for the scaled
// probability-domain partition view. The streaming kernels and the per-cell
// finalize therefore never spell ⊗ as a native operator: the streams take
// it from the kernel bundle, and each hot instantiation has a specialised
// finalize body (finalizeMaxPlusTriangle, finalizeSumProductTriangle) that
// applies its own ⊕ and ⊗ without a func-value call per cell. The base and
// reference schedules are the exception — they spell ⊗ as `+` and are only
// ever instantiated over max-plus and log-sum-exp, where that holds.
//
// An alg is a value type: slices reference the owner's storage (Problem
// tables for max-plus, PartitionSub tables for log-sum-exp, a per-fold
// scratch buffer for the scaled probability view), so building one
// allocates nothing.
type alg[T semiring.Scalar] struct {
	k semiring.Kernels[T]
	// s1, s2 are the single-strand substrate tables, row-major n×n bounding
	// boxes (the layout nussinov.Table and nussinov.GTable share). Only the
	// cells j >= i are read; empty intervals resolve through s1At/s2At.
	s1, s2 []T
	// sc1, sc2 are the intramolecular pair scores (row-major n×n); isc the
	// intermolecular matrix (n1×n2). All in the semiring's scale: raw weights
	// for max-plus, w/kT (forbidden ⇒ -Inf) for the log-domain partition
	// semiring, scaled Boltzmann factors (forbidden ⇒ 0) for the
	// probability domain.
	sc1, sc2, isc []T
	n1, n2        int
	// prob marks the scaled probability-domain view (⊕ = +, ⊗ = ×); the
	// float64 solver picks its finalize body from it once per triangle.
	prob bool
}

// maxplusAlg builds the tropical float32 view over a problem's own tables.
// Pure reslicing: safe to call per solve on the pooled hot path.
func maxplusAlg(p *Problem, unroll bool) alg[float32] {
	return alg[float32]{
		k:   semiring.MaxPlusKernels(unroll),
		s1:  p.S1.Data(),
		s2:  p.S2.Data(),
		sc1: p.Tab.Intra1,
		sc2: p.Tab.Intra2,
		isc: p.Tab.Inter,
		n1:  p.N1,
		n2:  p.N2,
	}
}

// s1At returns S¹[i,j]; empty intervals (j < i) are One. The branch keeps
// callers independent of what the table stores below its diagonal (0, which
// is One only in the additive-⊗ semirings).
func (a *alg[T]) s1At(i, j int) T {
	if j < i {
		return a.k.One
	}
	return a.s1[i*a.n1+j]
}

// s2At returns S²[i,j]; see s1At.
func (a *alg[T]) s2At(i, j int) T {
	if j < i {
		return a.k.One
	}
	return a.s2[i*a.n2+j]
}

// s2Row returns row i of S² (indexed by absolute j).
func (a *alg[T]) s2Row(i int) []T { return a.s2[i*a.n2 : (i+1)*a.n2] }

// score1 is the intramolecular pair weight for seq1 positions (i, j).
func (a *alg[T]) score1(i, j int) T { return a.sc1[i*a.n1+j] }

// score2 is the intramolecular pair weight for seq2 positions (i, j).
func (a *alg[T]) score2(i, j int) T { return a.sc2[i*a.n2+j] }

// singleton returns the base case F[i,i,k,k] = iscore(i,k) ⊕ One: the two
// single bases either bond intermolecularly or stay unpaired. For max-plus
// this is max(0, iscore); for the partition semiring, log(1 + e^{w/kT}).
func (a *alg[T]) singleton(i1, i2 int) T {
	return a.k.Add(a.isc[i1*a.n2+i2], a.k.One)
}

// inter returns the raw intermolecular bond weight iscore(i1, i2) — the
// singleton candidate WITHOUT the ⊕ One alternative. The streamed schedules
// need this form: their H seed already contributes One (both bases
// unpaired) to every singleton cell, so folding in singleton() instead
// would count the empty derivation twice — invisible under max (One ⊕ One =
// One) but wrong under any summing ⊕.
func (a *alg[T]) inter(i1, i2 int) T { return a.isc[i1*a.n2+i2] }
