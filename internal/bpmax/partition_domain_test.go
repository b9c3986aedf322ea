package bpmax

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/bpmax-go/bpmax/internal/rna"
	"github.com/bpmax-go/bpmax/internal/score"
)

// optimizedVariants are the schedules SolvePartitionContext runs in the
// scaled probability domain (base and reference stay in the log domain).
var optimizedVariants = []Variant{VariantCoarse, VariantFine, VariantHybrid, VariantHybridTiled}

// domainConfigs cover the worker counts, both memory maps, the tile knobs
// and the Phase II scratch-accumulate path of the hybrid schedule.
var domainConfigs = []Config{
	{Workers: 1},
	{Workers: 2, Map: MapPacked},
	{Workers: 2, TileI2: 3, TileK2: 2, TileJ2: 4},
	{Workers: 2, ScratchAccum: true},
}

// solveLogDomain is the log-sum-exp fill of one schedule — exactly what
// SolvePartitionContext ran before the scaled domain existed, and what it
// falls back to.
func solveLogDomain(t testing.TB, p *Problem, ps *PartitionSub, v Variant, cfg Config) *FTableOf[float64] {
	t.Helper()
	f, err := solveAlg(context.Background(), p, partitionAlg(p, ps), v, cfg)
	if err != nil {
		t.Fatalf("log-domain %s: %v", v, err)
	}
	return f
}

// relErr is |a-b| relative to max(|a|, |b|, 1): relative for the usual
// log partition values, absolute for cells whose log is near 0 (a lone
// base pair with every bond forbidden has log Z = 0 exactly).
func relErr(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// eachCell calls fn for every stored cell of an n1×n2 table.
func eachCell(n1, n2 int, fn func(i1, j1, i2, j2 int)) {
	for i1 := 0; i1 < n1; i1++ {
		for j1 := i1; j1 < n1; j1++ {
			for i2 := 0; i2 < n2; i2++ {
				for j2 := i2; j2 < n2; j2++ {
					fn(i1, j1, i2, j2)
				}
			}
		}
	}
}

// checkDomainParity fails unless every cell of got (any domain) reads, as a
// log value, within tol of the log-domain table want, and is finite.
func checkDomainParity(t testing.TB, p *Problem, want, got *FTableOf[float64], tol float64, label string) {
	t.Helper()
	eachCell(p.N1, p.N2, func(i1, j1, i2, j2 int) {
		g := PartitionLogAt(got, i1, j1, i2, j2)
		w := want.At(i1, j1, i2, j2)
		if math.IsNaN(g) || math.IsInf(g, 0) {
			t.Fatalf("%s: F[%d,%d,%d,%d] = %v", label, i1, j1, i2, j2, g)
		}
		if e := relErr(g, w); e > tol {
			t.Fatalf("%s: F[%d,%d,%d,%d] = %v, log-domain fill %v (rel err %.3g > %.3g)",
				label, i1, j1, i2, j2, g, w, e, tol)
		}
	})
}

// checkBitIdentical fails unless two tables hold the same raw cells.
func checkBitIdentical(t testing.TB, p *Problem, want, got *FTableOf[float64], label string) {
	t.Helper()
	eachCell(p.N1, p.N2, func(i1, j1, i2, j2 int) {
		if g, w := got.At(i1, j1, i2, j2), want.At(i1, j1, i2, j2); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: F[%d,%d,%d,%d] = %v, want %v bit for bit", label, i1, j1, i2, j2, g, w)
		}
	})
}

// TestPartitionDomainRange sweeps kT over five decades at the longest
// strands the partition-screen benchmark workload sends (10 × 64 nt) and
// pins, at each setting, the domain the fill chose, its agreement with the
// log-sum-exp fill (every cell, so SubLogZ as well as LogZ, within 1e-12
// relative), finiteness, and LogZ >= score/kT. At kT <= 0.01 the scaled
// factors leave float64's range and the fold must fall back.
func TestPartitionDomainRange(t *testing.T) {
	p := newTestProblem(t, 77, 10, 64)
	score := float64(p.Score(Solve(p, VariantHybridTiled, Config{Workers: 2})))
	for _, tc := range []struct {
		kT   float64
		want PartitionDomain
	}{
		{1e-3, DomainLog},
		{0.01, DomainLog},
		{0.1, DomainScaled},
		{1, DomainScaled},
		{100, DomainScaled},
	} {
		ps := buildTestPartitionSub(t, p, tc.kT)
		cfg := Config{Workers: 2}
		got, err := SolvePartitionContext(context.Background(), p, ps, VariantHybridTiled, cfg)
		if err != nil {
			t.Fatalf("kT=%v: %v", tc.kT, err)
		}
		if d := PartitionDomainOf(got); d != tc.want {
			t.Fatalf("kT=%v: filled in the %v domain, want %v", tc.kT, d, tc.want)
		}
		want := solveLogDomain(t, p, ps, VariantHybridTiled, cfg)
		checkDomainParity(t, p, want, got, 1e-12, fmt.Sprint("kT=", tc.kT))
		if tc.want == DomainLog {
			checkBitIdentical(t, p, want, got, fmt.Sprint("fallback kT=", tc.kT))
		}
		logZ := PartitionLogZ(p, got)
		if bound := score / tc.kT; logZ < bound-1e-9*math.Max(1, bound) {
			t.Fatalf("kT=%v: LogZ %v below score/kT %v", tc.kT, logZ, bound)
		}
	}
}

// TestPartitionScaledLongTarget: a target three times the benchmark's
// longest (8 × 192 nt) still fills in the scaled domain at kT = 1 and 100
// with every cell finite and normal and LogZ >= score/kT. (The log-domain
// oracle is too slow at this size for a unit test; the parity tests above
// cover agreement.)
func TestPartitionScaledLongTarget(t *testing.T) {
	p := newTestProblem(t, 78, 8, 192)
	score := float64(p.Score(Solve(p, VariantHybridTiled, Config{Workers: 2})))
	for _, kT := range []float64{1, 100} {
		ps := buildTestPartitionSub(t, p, kT)
		got, err := SolvePartitionContext(context.Background(), p, ps, VariantHybridTiled, Config{Workers: 2})
		if err != nil {
			t.Fatalf("kT=%v: %v", kT, err)
		}
		if d := PartitionDomainOf(got); d != DomainScaled {
			t.Fatalf("kT=%v: filled in the %v domain, want scaled", kT, d)
		}
		if !scaledCellsNormal(got) {
			t.Fatalf("kT=%v: scaled table has a non-normal cell", kT)
		}
		if logZ := PartitionLogZ(p, got); !(logZ >= score/kT) || math.IsInf(logZ, 0) {
			t.Fatalf("kT=%v: LogZ %v, score/kT %v", kT, logZ, score/kT)
		}
	}
}

// TestPartitionFallbackBitIdentical: both guards — a scaled input factor
// out of range (kT = 1e-3) and a filled cell out of range with every input
// in range (kT = 0.003 at 4 × 8) — send every optimized schedule to the log
// domain, whose table is then bit-identical to the log-sum-exp fill.
func TestPartitionFallbackBitIdentical(t *testing.T) {
	p := newTestProblem(t, 77, 4, 8)
	for _, tc := range []struct {
		kT       float64
		inputsOK bool
	}{
		{1e-3, false},
		{0.003, true},
	} {
		ps := buildTestPartitionSub(t, p, tc.kT)
		scratch := make([]float64, 2*p.N1*p.N1+2*p.N2*p.N2+p.N1*p.N2)
		if _, ok := scaledPartitionAlg(p, ps, logScale(ps.S1, p.N1), logScale(ps.S2, p.N2), scratch); ok != tc.inputsOK {
			t.Fatalf("kT=%v: scaled inputs in range = %v, want %v", tc.kT, ok, tc.inputsOK)
		}
		for _, v := range optimizedVariants {
			for _, cfg := range domainConfigs {
				got, err := SolvePartitionContext(context.Background(), p, ps, v, cfg)
				if err != nil {
					t.Fatalf("%s: %v", v, err)
				}
				if d := PartitionDomainOf(got); d != DomainLog {
					t.Fatalf("kT=%v %s: filled in the %v domain, want the log fallback", tc.kT, v, d)
				}
				checkBitIdentical(t, p, solveLogDomain(t, p, ps, v, cfg), got, v.String())
			}
		}
	}
}

// TestPartitionScaledPoolHygiene: the per-fold factor scratch and, on a
// fallback, the discarded scaled table both go back to the pool, so zero
// buffers stay live once the returned tables are released; and a pooled
// fill equals a fresh one exactly in either domain, with float32 folds
// churning the same pool in between.
func TestPartitionScaledPoolHygiene(t *testing.T) {
	pl := NewPool()
	p := newTestProblem(t, 77, 4, 8)
	for _, kT := range []float64{1, 0.003, 1e-3} {
		ps := buildTestPartitionSub(t, p, kT)
		for _, v := range optimizedVariants {
			cfg := Config{Workers: 2}
			fresh, err := SolvePartitionContext(context.Background(), p, ps, v, cfg)
			if err != nil {
				t.Fatalf("fresh: %v", err)
			}
			Solve(p, VariantHybrid, Config{Pool: pl}).Release()
			for rep := 0; rep < 2; rep++ {
				cfg.Pool = pl
				gets := pl.Stats().Buffers.Gets
				pooled, err := SolvePartitionContext(context.Background(), p, ps, v, cfg)
				if err != nil {
					t.Fatalf("pooled: %v", err)
				}
				if PartitionDomainOf(pooled) != PartitionDomainOf(fresh) {
					t.Fatalf("kT=%v %s: pooled domain %v, fresh %v", kT, v,
						PartitionDomainOf(pooled), PartitionDomainOf(fresh))
				}
				checkBitIdentical(t, p, fresh, pooled, "pooled "+v.String())
				if PartitionLogZ(p, pooled) != PartitionLogZ(p, fresh) {
					t.Fatalf("kT=%v %s: pooled LogZ differs", kT, v)
				}
				if d := pl.Stats().Buffers.Gets - gets; d < 2 {
					t.Fatalf("kT=%v %s: %d pooled buffer gets, want the table and the factor scratch", kT, v, d)
				}
				if live := pl.Stats().Buffers.Live; live != 1 {
					t.Fatalf("kT=%v %s: %d live buffers before Release, want only the returned table", kT, v, live)
				}
				pooled.Release()
				if live := pl.Stats().Buffers.Live; live != 0 {
					t.Fatalf("kT=%v %s: %d live buffers after Release", kT, v, live)
				}
			}
		}
	}
}

// FuzzPartitionDomainParity pins the scaled probability-domain fill to the
// log-sum-exp fill of the same schedule, over every optimized schedule and
// every domainConfigs entry. kT is drawn log-uniformly from [1e-3, 100], so
// both the scaled fast path and the log fallback run: scaled tables must
// agree cell by cell to 1e-12 relative, fallback tables bit for bit.
func FuzzPartitionDomainParity(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(7), uint16(40000))
	f.Add(int64(2), uint8(3), uint8(8), uint16(0))
	f.Add(int64(3), uint8(8), uint8(8), uint16(20000))
	f.Add(int64(4), uint8(0), uint8(4), uint16(65535))
	f.Add(int64(5), uint8(7), uint8(11), uint16(39000))
	f.Fuzz(func(t *testing.T, seed int64, rn1, rn2 uint8, rkT uint16) {
		n1 := 1 + int(rn1)%9
		n2 := 1 + int(rn2)%9
		kT := math.Pow(10, -3+5*float64(rkT)/math.MaxUint16)
		rng := rand.New(rand.NewSource(seed))
		p, err := NewProblem(rna.Random(rng, n1), rna.Random(rng, n2), score.DefaultParams())
		if err != nil {
			t.Fatalf("NewProblem: %v", err)
		}
		ps := buildTestPartitionSub(t, p, kT)
		for _, v := range optimizedVariants {
			for _, cfg := range domainConfigs {
				got, err := SolvePartitionContext(context.Background(), p, ps, v, cfg)
				if err != nil {
					t.Fatalf("%s: %v", v, err)
				}
				want := solveLogDomain(t, p, ps, v, cfg)
				if PartitionDomainOf(got) == DomainLog {
					checkBitIdentical(t, p, want, got, v.String())
					continue
				}
				checkDomainParity(t, p, want, got, 1e-12, v.String())
			}
		}
	})
}
