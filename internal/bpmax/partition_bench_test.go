package bpmax

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkPartitionFill compares one 8×64 hybrid-tiled fill three ways:
// max-plus (float32), the partition function in the scaled probability
// domain (what SolvePartitionContext runs), and the same schedule in the
// log domain (the fallback, and the fill before the scaled domain).
func BenchmarkPartitionFill(b *testing.B) {
	p := newTestProblem(b, 7, 8, 64)
	ps := buildTestPartitionSub(b, p, 1.0)
	ctx := context.Background()
	cfg := Config{Workers: 1}
	b.Run("maxplus", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Solve(p, VariantHybridTiled, cfg)
		}
	})
	b.Run("scaled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := SolvePartitionContext(ctx, p, ps, VariantHybridTiled, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("log", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := solveAlg(ctx, p, partitionAlg(p, ps), VariantHybridTiled, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFinalizeTriangle measures the R1/R2 + per-cell update pass of
// one 64-wide triangle in the scaled probability domain, through the
// specialised sum-product body (native + and ×) and through the generic
// body (⊕ and ⊗ as func-value calls per cell). Both stream R1/R2 through
// the same kernels; the gap is the per-cell dispatch.
func BenchmarkFinalizeTriangle(b *testing.B) {
	for _, n2 := range []int{16, 64} {
		p := newTestProblem(b, 7, 8, n2)
		ps := buildTestPartitionSub(b, p, 1.0)
		n1 := p.N1
		buf := make([]float64, 2*n1*n1+2*n2*n2+n1*n2)
		a, ok := scaledPartitionAlg(p, ps, logScale(ps.S1, n1), logScale(ps.S2, n2), buf)
		if !ok {
			b.Fatal("scaled inputs out of range")
		}
		cfg := Config{Workers: 1}
		ft, err := solveAlg(context.Background(), p, a, VariantHybridTiled, cfg)
		if err != nil {
			b.Fatal(err)
		}
		s := newGSolver(p, a, cfg, MapBox)
		s.f.Release()
		s.f = ft
		i1, j1 := 0, n1-1
		blk := ft.Block(i1, j1)
		saved := append([]float64(nil), blk...)
		b.Run(fmt.Sprintf("n2=%d/specialised", n2), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(blk, saved)
				finalizeSumProductTriangle(s, blk, i1, j1)
			}
		})
		b.Run(fmt.Sprintf("n2=%d/generic", n2), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(blk, saved)
				s.finalizeGeneric(blk, i1, j1)
			}
		})
	}
}
