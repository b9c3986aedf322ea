package bpmax

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestPartitionFoldBasics pins the public BPPart contract: a partition fold
// returns a finite LogZ that dominates the max-plus optimum scaled by 1/kT
// (log-sum-exp >= max pointwise, so the whole fill inherits the bound), the
// per-strand values match the substrate tables, and SubLogZ reads the same
// cells the max-plus SubScore would.
func TestPartitionFoldBasics(t *testing.T) {
	const s1, s2 = "GGGAAACCC", "GGGUUUCCC"
	mp, err := Fold(s1, s2)
	if err != nil {
		t.Fatalf("maxplus fold: %v", err)
	}
	for _, kT := range []float64{1.0, 0.25} {
		res, err := Fold(s1, s2, WithAlgebra(AlgebraPartition), WithKT(kT), WithMetrics(NewMetrics()))
		if err != nil {
			t.Fatalf("partition fold (kT=%g): %v", kT, err)
		}
		if res.Algebra != AlgebraPartition || res.KT != kT {
			t.Fatalf("result labeled %q kT=%g, want partition kT=%g", res.Algebra, res.KT, kT)
		}
		if math.IsInf(res.LogZ, 0) || math.IsNaN(res.LogZ) {
			t.Fatalf("LogZ = %v, want finite", res.LogZ)
		}
		if bound := float64(mp.Score) / kT; res.LogZ < bound {
			t.Fatalf("kT=%g: LogZ %v < score/kT %v (ensemble must dominate MFE)", kT, res.LogZ, bound)
		}
		if got := res.SubLogZ(0, res.N1-1, 0, res.N2-1); got != res.LogZ {
			t.Fatalf("SubLogZ(full) = %v, LogZ = %v", got, res.LogZ)
		}
		// Empty intervals defer to the single-strand substrates.
		if got := res.SubLogZ(1, 0, 0, res.N2-1); got != res.LogZ2 {
			t.Fatalf("SubLogZ(empty seq1) = %v, LogZ2 = %v", got, res.LogZ2)
		}
		if got := res.SubLogZ(0, res.N1-1, 1, 0); got != res.LogZ1 {
			t.Fatalf("SubLogZ(empty seq2) = %v, LogZ1 = %v", got, res.LogZ1)
		}
		if res.Metrics.Algebra != string(AlgebraPartition) {
			t.Fatalf("metrics algebra = %q", res.Metrics.Algebra)
		}
		if res.Metrics.PartitionDomain != "scaled" {
			t.Fatalf("metrics partition domain = %q, want scaled", res.Metrics.PartitionDomain)
		}
		if res.Score != 0 {
			t.Fatalf("partition Score = %v, want 0 (undefined)", res.Score)
		}
	}
}

// TestPartitionSubLogZScaledMatchesLogDomain: the default schedule fills
// partition tables in the scaled probability domain; LogZ and every
// SubLogZ cell it serves must read, as log values, within 1e-12 relative of
// the base schedule, which always fills in the log domain. kT = 1e-3 sends
// the default schedule to its log fallback, kT = 1 and 100 keep it scaled.
func TestPartitionSubLogZScaledMatchesLogDomain(t *testing.T) {
	const s1, s2 = "GGGAAACCUA", "GGGUUUCCCAUGCAUCGAUGGCUAGCUAGCUAGG"
	for _, kT := range []float64{1e-3, 1, 100} {
		opts := []Option{WithAlgebra(AlgebraPartition), WithKT(kT)}
		got, err := Fold(s1, s2, opts...)
		if err != nil {
			t.Fatalf("kT=%g: %v", kT, err)
		}
		want, err := Fold(s1, s2, append(opts, WithVariant(Base))...)
		if err != nil {
			t.Fatalf("kT=%g base: %v", kT, err)
		}
		rel := func(a, b float64) float64 {
			return math.Abs(a-b) / math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
		}
		if e := rel(got.LogZ, want.LogZ); e > 1e-12 || math.IsNaN(got.LogZ) {
			t.Fatalf("kT=%g: LogZ %v, log domain %v (rel err %.3g)", kT, got.LogZ, want.LogZ, e)
		}
		for i1 := 0; i1 < got.N1; i1++ {
			for j1 := i1; j1 < got.N1; j1++ {
				for i2 := 0; i2 < got.N2; i2++ {
					for j2 := i2; j2 < got.N2; j2++ {
						g, w := got.SubLogZ(i1, j1, i2, j2), want.SubLogZ(i1, j1, i2, j2)
						if e := rel(g, w); e > 1e-12 || math.IsNaN(g) || math.IsInf(g, 0) {
							t.Fatalf("kT=%g: SubLogZ(%d,%d,%d,%d) = %v, log domain %v", kT, i1, j1, i2, j2, g, w)
						}
					}
				}
			}
		}
	}
}

// TestPartitionAccessorGuards: the max-plus-only accessors must refuse a
// partition result loudly (and SubLogZ must refuse a max-plus result)
// rather than returning garbage.
func TestPartitionAccessorGuards(t *testing.T) {
	pres, err := Fold("GGAACC", "GGUUCC", WithAlgebra(AlgebraPartition))
	if err != nil {
		t.Fatalf("partition fold: %v", err)
	}
	mres, err := Fold("GGAACC", "GGUUCC")
	if err != nil {
		t.Fatalf("maxplus fold: %v", err)
	}
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("Structure", func() { pres.Structure() })
	expectPanic("BestLocal", func() { pres.BestLocal(4, 4) })
	expectPanic("SubScore", func() { pres.SubScore(0, 1, 0, 1) })
	expectPanic("SubLogZ on maxplus", func() { mres.SubLogZ(0, 1, 0, 1) })
}

// TestAlgebraValidation: unknown algebras and non-positive or infinite kT
// are rejected before any work.
func TestAlgebraValidation(t *testing.T) {
	if _, err := Fold("GG", "CC", WithAlgebra("boltzmann")); err == nil ||
		!strings.Contains(err.Error(), "unknown algebra") {
		t.Errorf("unknown algebra: err = %v", err)
	}
	for _, kT := range []float64{-1, math.Inf(1)} {
		if _, err := Fold("GG", "CC", WithAlgebra(AlgebraPartition), WithKT(kT)); err == nil ||
			!strings.Contains(err.Error(), "kT") {
			t.Errorf("kT=%v: err = %v", kT, err)
		}
	}
}

// TestPartitionWindowedRejected: the banded scan is a max-plus structure;
// a partition request must fail with a clear error, not a wrong answer.
func TestPartitionWindowedRejected(t *testing.T) {
	if _, err := ScanWindowed("GGGAAACCC", "GGGUUUCCC", 4, 4,
		WithAlgebra(AlgebraPartition)); err == nil ||
		!strings.Contains(err.Error(), "max-plus only") {
		t.Errorf("windowed partition: err = %v", err)
	}
}

// TestAlgebraCacheNoCrossServe: the same pair folded under both algebras
// must produce two distinct result-cache entries — a partition fold can
// never be served a max-plus table or vice versa — while warm repeats of
// each mode hit their own entry.
func TestAlgebraCacheNoCrossServe(t *testing.T) {
	c := NewCache(CacheConfig{})
	const s1, s2 = "GGGAAACCC", "GGGUUUCCC"
	mp, err := Fold(s1, s2, WithCache(c))
	if err != nil {
		t.Fatalf("maxplus: %v", err)
	}
	pt, err := Fold(s1, s2, WithCache(c), WithAlgebra(AlgebraPartition))
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	if st := c.Stats(); st.ResultHits != 0 || st.ResultMisses != 2 {
		t.Fatalf("cold stats: hits %d misses %d, want 0/2", st.ResultHits, st.ResultMisses)
	}
	// Distinct kT is a distinct ensemble: it must also miss.
	if _, err := Fold(s1, s2, WithCache(c), WithAlgebra(AlgebraPartition), WithKT(0.5)); err != nil {
		t.Fatalf("partition kT=0.5: %v", err)
	}
	if st := c.Stats(); st.ResultMisses != 3 {
		t.Fatalf("kT-qualified key did not miss: misses %d", st.ResultMisses)
	}
	mp2, err := Fold(s1, s2, WithCache(c))
	if err != nil {
		t.Fatalf("warm maxplus: %v", err)
	}
	pt2, err := Fold(s1, s2, WithCache(c), WithAlgebra(AlgebraPartition))
	if err != nil {
		t.Fatalf("warm partition: %v", err)
	}
	if st := c.Stats(); st.ResultHits != 2 {
		t.Fatalf("warm stats: hits %d, want 2", st.ResultHits)
	}
	if mp2.Score != mp.Score || mp2.Algebra != AlgebraMaxPlus {
		t.Errorf("warm maxplus: score %v algebra %q", mp2.Score, mp2.Algebra)
	}
	if pt2.LogZ != pt.LogZ || pt2.Algebra != AlgebraPartition {
		t.Errorf("warm partition: LogZ %v (cold %v) algebra %q", pt2.LogZ, pt.LogZ, pt2.Algebra)
	}
}

// TestPartitionSubstrateCacheShared: the float64 single-strand ensemble
// substrate is cached per (strand, model, kT), so a second pair sharing one
// strand reuses its fill.
func TestPartitionSubstrateCacheShared(t *testing.T) {
	c := NewCache(CacheConfig{})
	if _, err := Fold("GGGAAACCC", "GGGUUUCCC", WithCache(c), WithAlgebra(AlgebraPartition)); err != nil {
		t.Fatalf("first: %v", err)
	}
	if _, err := Fold("GGGAAACCC", "ACGUACGU", WithCache(c), WithAlgebra(AlgebraPartition)); err != nil {
		t.Fatalf("second: %v", err)
	}
	if st := c.Stats(); st.SubstrateHits < 1 {
		t.Fatalf("shared strand did not hit the partition substrate cache: %+v", st)
	}
}

// TestPartitionPooledRelease: a pooled partition fold returns its float64
// table to the pool on Release — no buffer may stay checked out.
func TestPartitionPooledRelease(t *testing.T) {
	pl := NewPool()
	res, err := Fold("GGGAAACCC", "GGGUUUCCC", WithPool(pl), WithAlgebra(AlgebraPartition))
	if err != nil {
		t.Fatalf("fold: %v", err)
	}
	lz := res.LogZ
	res.Release()
	if live := pl.Stats().Buffers.Live; live != 0 {
		t.Fatalf("pool has %d live buffers after Release", live)
	}
	// Pooled must agree with fresh on the same schedule (same rounding
	// order, so exact equality holds even in log-sum-exp).
	fresh, err := Fold("GGGAAACCC", "GGGUUUCCC", WithAlgebra(AlgebraPartition))
	if err != nil {
		t.Fatalf("fresh: %v", err)
	}
	if fresh.LogZ != lz {
		t.Fatalf("pooled LogZ %v != fresh %v", lz, fresh.LogZ)
	}
}

// TestPartitionBatchGain: batch results under the partition algebra rank by
// the log-odds interaction gain logZ − logZ1 − logZ2.
func TestPartitionBatchGain(t *testing.T) {
	items := []BatchItem{
		{Name: "a", Seq1: "GGGAAACCC", Seq2: "GGGUUUCCC"},
		{Name: "b", Seq1: "AAAA", Seq2: "AAAA"},
	}
	for _, br := range FoldBatch(items, 2, WithAlgebra(AlgebraPartition)) {
		if br.Err != nil {
			t.Fatalf("%s: %v", br.Name, br.Err)
		}
		want := float32(br.Result.LogZ - br.Result.LogZ1 - br.Result.LogZ2)
		if br.Gain != want {
			t.Errorf("%s: Gain %v, want %v", br.Name, br.Gain, want)
		}
		if br.Gain < -1e-5 {
			t.Errorf("%s: negative interaction gain %v (ensemble includes both independent folds)", br.Name, br.Gain)
		}
	}
}

// TestEnsembleCacheWarmHit: SingleEnsemble's fills ride the
// content-addressed cache — a repeated strand is served from it, values
// identical.
func TestEnsembleCacheWarmHit(t *testing.T) {
	c := NewCache(CacheConfig{})
	cold, err := SingleEnsemble("GGGAAACCC", 1.0, WithCache(c))
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	if st := c.Stats(); st.ResultHits != 0 || st.ResultMisses != 1 {
		t.Fatalf("cold stats: %+v", st)
	}
	warm, err := SingleEnsemble("GGGAAACCC", 1.0, WithCache(c))
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if st := c.Stats(); st.ResultHits != 1 {
		t.Fatalf("warm stats: %+v", st)
	}
	if *warm != *cold {
		t.Fatalf("warm ensemble %+v != cold %+v", warm, cold)
	}
	// A different kT is a different ensemble and must miss.
	if _, err := SingleEnsemble("GGGAAACCC", 0.5, WithCache(c)); err != nil {
		t.Fatalf("kT=0.5: %v", err)
	}
	if st := c.Stats(); st.ResultMisses != 2 {
		t.Fatalf("kT-qualified ensemble key did not miss: %+v", st)
	}
}

// TestSessionConcurrentAlgebras drives max-plus and partition folds through
// one Session at the same time — shared cache, pool, and admission — and
// checks every result carries its own algebra's values. Run under -race in
// CI, this is the no-cross-serve proof at the serving layer.
func TestSessionConcurrentAlgebras(t *testing.T) {
	s, err := NewSession(
		WithCache(NewCache(CacheConfig{})),
		WithPool(NewPool()),
		WithAdmission(NewAdmission(AdmissionConfig{MaxConcurrent: 4, MaxQueue: 64})),
	)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer s.Close()
	pairs := [][2]string{
		{"GGGAAACCC", "GGGUUUCCC"},
		{"ACGUACGUAC", "UGCAUGCA"},
		{"GGAACC", "GGUUCC"},
	}
	mp, err := s.Fold(context.Background(), pairs[0][0], pairs[0][1])
	if err != nil {
		t.Fatalf("seed maxplus: %v", err)
	}
	wantScore := mp.Score
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				p := pairs[(g+i)%len(pairs)]
				if (g+i)%2 == 0 {
					res, err := s.Fold(context.Background(), p[0], p[1])
					if err != nil {
						errs <- err
						return
					}
					if res.Algebra != AlgebraMaxPlus {
						t.Errorf("maxplus fold served %q result", res.Algebra)
					}
					if p == pairs[0] && res.Score != wantScore {
						t.Errorf("maxplus score drifted: %v != %v", res.Score, wantScore)
					}
					res.Release()
				} else {
					res, err := s.FoldWith(context.Background(), p[0], p[1],
						WithAlgebra(AlgebraPartition))
					if err != nil {
						errs <- err
						return
					}
					if res.Algebra != AlgebraPartition {
						t.Errorf("partition fold served %q result", res.Algebra)
					}
					if math.IsNaN(res.LogZ) || math.IsInf(res.LogZ, 0) {
						t.Errorf("partition LogZ = %v", res.LogZ)
					}
					res.Release()
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent fold: %v", err)
	}
}
