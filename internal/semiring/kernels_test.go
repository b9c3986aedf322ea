package semiring

import (
	"math"
	"math/rand"
	"testing"
)

// TestSumProductKernelsMatchScalarLoops checks the unrolled sum-product
// streams against plain scalar loops, bit for bit, across every length
// around the 4-way unroll (tails included) and with mismatched slice
// lengths (the kernels stream over the common prefix only).
func TestSumProductKernelsMatchScalarLoops(t *testing.T) {
	k := SumProductKernels()
	rng := rand.New(rand.NewSource(5))
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64() * 3
		}
		return v
	}
	for n := 0; n <= 13; n++ {
		a1, a2 := rng.Float64(), rng.Float64()
		x := vec(n + 2) // longer than y: only the common prefix streams
		y := vec(n)
		want := append([]float64(nil), y...)
		for i := range want {
			want[i] += a1 * x[i]
		}
		k.Accum(y, x, a1)
		for i := range y {
			if y[i] != want[i] {
				t.Fatalf("Accum n=%d: y[%d] = %v, want %v", n, i, y[i], want[i])
			}
		}
		y1, y2 := vec(n), vec(n+1)
		w1, w2 := append([]float64(nil), y1...), append([]float64(nil), y2...)
		for i := 0; i < n; i++ {
			w1[i] += a1 * x[i]
			w2[i] += a2 * x[i]
		}
		k.AccumDual(y1, y2, x[:n], a1, a2)
		for i := range w1 {
			if y1[i] != w1[i] {
				t.Fatalf("AccumDual n=%d: y1[%d] = %v, want %v", n, i, y1[i], w1[i])
			}
		}
		for i := range w2 {
			if y2[i] != w2[i] {
				t.Fatalf("AccumDual n=%d: y2[%d] = %v, want %v", n, i, y2[i], w2[i])
			}
		}
		dst := vec(n)
		k.MulInto(dst, x, a2)
		for i := range dst {
			if dst[i] != a2*x[i] {
				t.Fatalf("MulInto n=%d: dst[%d] = %v, want %v", n, i, dst[i], a2*x[i])
			}
		}
	}
	if k.Zero != 0 || k.One != 1 || k.Add(2, 3) != 5 || k.Mul(2, 3) != 6 {
		t.Fatalf("sum-product identities or scalar ops wrong: %+v", k)
	}
}

// TestKernelMulIsTheSemiringProduct: every kernel set's scalar ⊗ agrees
// with its streaming MulInto, and One is its identity.
func TestKernelMulIsTheSemiringProduct(t *testing.T) {
	mp := MaxPlusKernels(false)
	if got := mp.Mul(1.5, 2); got != 3.5 || mp.Mul(mp.One, 7) != 7 {
		t.Fatalf("max-plus Mul(1.5, 2) = %v", got)
	}
	lg := LogSumExpKernels()
	if got := lg.Mul(1.5, 2); got != 3.5 || lg.Mul(lg.One, 7) != 7 {
		t.Fatalf("log-sum-exp Mul(1.5, 2) = %v", got)
	}
	// The two partition kernel sets compute the same sum in different
	// domains: exp of a log-domain ⊕⊗ stream equals the sum-product stream.
	sp := SumProductKernels()
	x := []float64{0.3, -1.2, 2.0, 0.0, -0.5}
	y := []float64{0.1, 0.4, -2.0, 1.0, 0.7}
	a := 0.25
	ly := append([]float64(nil), y...)
	lg.Accum(ly, x, a)
	py := make([]float64, len(y))
	px := make([]float64, len(x))
	for i := range y {
		py[i], px[i] = math.Exp(y[i]), math.Exp(x[i])
	}
	sp.Accum(py, px, math.Exp(a))
	for i := range ly {
		if d := math.Abs(math.Log(py[i]) - ly[i]); d > 1e-14 {
			t.Fatalf("domains disagree at %d: log %v, sum-product %v", i, ly[i], math.Log(py[i]))
		}
	}
}
