package semiring

import (
	"math"

	"github.com/bpmax-go/bpmax/internal/maxplus"
)

// Scalar constrains the element types the generic BPMax fill runs over:
// float32 for the tropical (max, +) instance — the paper's single-precision
// storage choice — and float64 for the log-sum-exp partition instance,
// where the extra mantissa keeps long ⊕ chains stable.
type Scalar interface {
	~float32 | ~float64
}

// Kernels bundles one scalar semiring's streaming kernels in the exact
// shapes the optimized solver consumes. The paper's whole optimization
// story reduces to the row-streaming update y[j] = y[j] ⊕ (a ⊗ x[j]); a
// Kernels value supplies that update (Accum), its register-tiled dual-row
// variant (AccumDual), the row initializer dst[j] = a ⊗ x[j] (MulInto),
// and the scalar ⊕ and ⊗ for per-cell orchestration (Add, Mul).
//
// Tie-breaking contract: Add(candidate, accumulator) must return the
// accumulator when the two compare equal, mirroring the specialized
// float32 code's `if w > v { v = w }`. The generic fill always passes the
// running value second, so max-plus instantiations stay bit-identical to
// the hand-written kernels (including NaN propagation order).
type Kernels[T Scalar] struct {
	// Zero is ⊕'s identity (the "impossible" value); One is ⊗'s identity
	// (the empty structure).
	Zero, One T
	// Add is the scalar ⊕.
	Add func(a, b T) T
	// Mul is the scalar ⊗: native addition for the max-plus and log-domain
	// sets, multiplication for the probability-domain set.
	Mul func(a, b T) T
	// Accum streams y[i] = y[i] ⊕ (a ⊗ x[i]) over the common prefix.
	Accum func(y, x []T, a T)
	// AccumDual applies one shared x stream to two destination rows.
	AccumDual func(y1, y2, x []T, a1, a2 T)
	// MulInto initializes dst[i] = a ⊗ x[i] over the common prefix.
	MulInto func(dst, x []T, a T)
}

// MaxPlusKernels returns the tropical float32 kernel set backed by package
// maxplus — the same functions the pre-generic solver called directly, so
// results are bit-identical by construction. unroll selects the 8-way
// unrolled streaming kernel (Config.Unroll).
func MaxPlusKernels(unroll bool) Kernels[float32] {
	acc := maxplus.Accumulate
	if unroll {
		acc = maxplus.Accumulate8
	}
	return Kernels[float32]{
		Zero: NegInf,
		One:  0,
		Add: func(a, b float32) float32 {
			if a > b {
				return a
			}
			return b
		},
		Mul:       addF32,
		Accum:     acc,
		AccumDual: maxplus.AccumulateDual,
		MulInto:   maxplus.AddScalarInto,
	}
}

func addF32(a, b float32) float32 { return a + b }
func addF64(a, b float64) float64 { return a + b }

// lse is the numerically stable log(eᵃ + eᵇ). Identical to
// LogSumExp.Add; duplicated here as a free function so the streaming
// loops below inline it.
func lse(a, b float64) float64 {
	if math.IsInf(a, -1) {
		return b
	}
	if math.IsInf(b, -1) {
		return a
	}
	if a < b {
		a, b = b, a
	}
	return a + math.Log1p(math.Exp(b-a))
}

// LogSumExpKernels returns the log-domain sum-product kernel set over
// float64: ⊕ = log-sum-exp, ⊗ = + (multiplication of Boltzmann factors in
// log space). Feeding the BPMax recurrence weights w/kT through these
// kernels yields the BPPart-flavoured log partition value; as kT → 0 the
// fill converges to the max-plus score.
func LogSumExpKernels() Kernels[float64] {
	return Kernels[float64]{
		Zero: math.Inf(-1),
		One:  0,
		Add:  lse,
		Mul:  addF64,
		Accum: func(y, x []float64, a float64) {
			n := len(y)
			if len(x) < n {
				n = len(x)
			}
			x = x[:n]
			y = y[:n]
			for i := range y {
				y[i] = lse(a+x[i], y[i])
			}
		},
		AccumDual: func(y1, y2, x []float64, a1, a2 float64) {
			n := len(x)
			if len(y1) < n {
				n = len(y1)
			}
			if len(y2) < n {
				n = len(y2)
			}
			x = x[:n]
			y1 = y1[:n]
			y2 = y2[:n]
			for i := range x {
				v := x[i]
				y1[i] = lse(a1+v, y1[i])
				y2[i] = lse(a2+v, y2[i])
			}
		},
		MulInto: func(dst, x []float64, a float64) {
			n := len(dst)
			if len(x) < n {
				n = len(x)
			}
			x = x[:n]
			dst = dst[:n]
			for i := range dst {
				dst[i] = a + x[i]
			}
		},
	}
}

// SumProductKernels returns the probability-domain sum-product kernel set
// over float64: ⊕ = +, ⊗ = ×. Fed Boltzmann factors e^{w/kT} (scaled so the
// products stay inside float64's normal range; see package bpmax's
// partition fill), it computes the same partition function as
// LogSumExpKernels with a multiply-add per element instead of an exp and a
// log1p. The streaming kernels are 4-way unrolled: every element is an
// independent y += a·x, so the unroll only trims loop and bounds-check
// overhead.
func SumProductKernels() Kernels[float64] {
	return Kernels[float64]{
		Zero:      0,
		One:       1,
		Add:       addF64,
		Mul:       func(a, b float64) float64 { return a * b },
		Accum:     sumProductAccum,
		AccumDual: sumProductAccumDual,
		MulInto: func(dst, x []float64, a float64) {
			n := len(dst)
			if len(x) < n {
				n = len(x)
			}
			x = x[:n]
			dst = dst[:n]
			for i := range dst {
				dst[i] = a * x[i]
			}
		},
	}
}

// sumProductAccum streams y[i] += a·x[i] over the common prefix.
func sumProductAccum(y, x []float64, a float64) {
	n := len(y)
	if len(x) < n {
		n = len(x)
	}
	x = x[:n]
	y = y[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		x4 := x[i : i+4 : i+4]
		y4 := y[i : i+4 : i+4]
		y4[0] += a * x4[0]
		y4[1] += a * x4[1]
		y4[2] += a * x4[2]
		y4[3] += a * x4[3]
	}
	for ; i < n; i++ {
		y[i] += a * x[i]
	}
}

// sumProductAccumDual applies one shared x stream to two destination rows.
func sumProductAccumDual(y1, y2, x []float64, a1, a2 float64) {
	n := len(x)
	if len(y1) < n {
		n = len(y1)
	}
	if len(y2) < n {
		n = len(y2)
	}
	x = x[:n]
	y1 = y1[:n]
	y2 = y2[:n]
	for i := range x {
		v := x[i]
		y1[i] += a1 * v
		y2[i] += a2 * v
	}
}
