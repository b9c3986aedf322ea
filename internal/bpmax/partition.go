package bpmax

import (
	"context"
	"fmt"
	"math"

	"github.com/bpmax-go/bpmax/internal/nussinov"
	"github.com/bpmax-go/bpmax/internal/semiring"
)

// This file is the BPPart entry point: the BPMax recurrence evaluated as a
// sum over derivations, with every weight Boltzmann-scaled to w/kT. The
// fill reuses the exact max-plus schedules (solveAlg); only the algebra
// view differs. The result cell F[0,N1-1,0,N2-1] is then LogZ — the log of
// the derivation-weighted interaction ensemble sum. Because the BPMax
// grammar is ambiguous (a structure can have several derivations), LogZ
// upper-bounds the structure-ensemble log-partition function and
// lower-bounds nothing less than the max-plus optimum: lse(a,b) >= max(a,b)
// pointwise gives LogZ >= score/kT by induction, with kT·LogZ → score as
// kT → 0 (the derivation count is finite).
//
// Two domains evaluate the same sum:
//
//   - log domain (log-sum-exp over log weights): every ⊕ is an exp and a
//     log1p. The base and reference schedules always run here — they are
//     the independent oracle — and it is the fallback of the others.
//   - scaled probability domain (sum-product over Boltzmann factors): the
//     optimized schedules run here, where every ⊕⊗ of the streaming
//     accumulate is one multiply-add. Each fold is scaled per nucleotide,
//     Q̂ = Q·s₁^{-len₁}·s₂^{-len₂} with log s = logZ/n of the strand's own
//     single-strand ensemble, which keeps the cells near 1 in magnitude.
//     Interval lengths add exactly under every ⊗ of R0–R4, so the scale
//     costs nothing in the inner loops: it is folded once into the
//     Θ(n²) factor tables. If any scaled input or filled cell is not a
//     finite normal float64 (in practice only at extreme kT, where single
//     sub-intervals drift e^{±700} away from the per-nucleotide average),
//     the fold is refilled in the log domain. That decision depends only
//     on the fold's own inputs and schedule.

// scalePartition maps a max-plus weight to the log-Boltzmann domain:
// forbidden sentinels become a true -Inf (so e^w = 0 exactly, rather than a
// large-but-finite spurious weight), everything else w/kT.
func scalePartition(w float32, kT float64) float64 {
	if w <= semiring.NegInf/2 {
		return math.Inf(-1)
	}
	return float64(w) / kT
}

// PartitionSub bundles the Boltzmann-scaled inputs of one partition fill:
// the two log-sum-exp single-strand substrate tables and the scaled score
// matrices. It is the float64 counterpart of the Problem's S1/S2/Tab set,
// built per (sequence pair, model, kT) and cacheable by content hash.
type PartitionSub struct {
	KT     float64
	S1, S2 *nussinov.GTable[float64]
	// Sc1, Sc2 are the scaled intramolecular matrices (row-major n×n); Isc
	// the scaled intermolecular matrix (n1×n2). Forbidden pairs are -Inf.
	Sc1, Sc2, Isc []float64
}

// Bytes returns the substrate's storage footprint (tables and matrices).
func (ps *PartitionSub) Bytes() int64 {
	b := ps.S1.Bytes() + ps.S2.Bytes()
	b += int64(len(ps.Sc1)+len(ps.Sc2)+len(ps.Isc)) * 8
	return b
}

// BuildPartitionSub scales the problem's score tables by 1/kT and fills the
// two single-strand log-sum-exp substrates. kT must be positive. The
// Four-Russians fast path never applies here (it is a max-plus block
// precomputation); the classic diagonal schedule is the only rung, which is
// why the build takes a context — it is O(n³) like any substrate fill.
func BuildPartitionSub(ctx context.Context, p *Problem, kT float64) (*PartitionSub, error) {
	return BuildPartitionSubShared(ctx, p, kT, nil, nil)
}

// BuildPartitionSubShared is BuildPartitionSub with optionally pre-built
// single-strand substrates: a non-nil s1/s2 (a content-addressed cache hit
// for that strand under the same model and kT) is adopted read-only and its
// O(n³) fill skipped. The scaled score matrices are always rebuilt — they
// are per-pair (the intermolecular matrix) or cheap Θ(n²) scans.
func BuildPartitionSubShared(ctx context.Context, p *Problem, kT float64, s1, s2 *nussinov.GTable[float64]) (*PartitionSub, error) {
	if !(kT > 0) || math.IsInf(kT, 1) {
		return nil, fmt.Errorf("bpmax: partition kT must be positive and finite (got %v)", kT)
	}
	n1, n2 := p.N1, p.N2
	ps := &PartitionSub{
		KT:  kT,
		Sc1: make([]float64, n1*n1),
		Sc2: make([]float64, n2*n2),
		Isc: make([]float64, n1*n2),
	}
	for i, w := range p.Tab.Intra1 {
		ps.Sc1[i] = scalePartition(float32(w), kT)
	}
	for i, w := range p.Tab.Intra2 {
		ps.Sc2[i] = scalePartition(float32(w), kT)
	}
	for i, w := range p.Tab.Inter {
		ps.Isc[i] = scalePartition(float32(w), kT)
	}
	k := semiring.LogSumExpKernels()
	if s1 != nil {
		ps.S1 = s1
	} else {
		var err error
		ps.S1, err = nussinov.BuildGContext(ctx, n1, k, func(i, j int) float64 {
			return ps.Sc1[i*n1+j]
		})
		if err != nil {
			return nil, err
		}
	}
	if s2 != nil {
		ps.S2 = s2
	} else {
		var err error
		ps.S2, err = nussinov.BuildGContext(ctx, n2, k, func(i, j int) float64 {
			return ps.Sc2[i*n2+j]
		})
		if err != nil {
			return nil, err
		}
	}
	return ps, nil
}

// partitionAlg builds the log-sum-exp algebra view over a problem and its
// partition substrate. Pure reslicing, like maxplusAlg.
func partitionAlg(p *Problem, ps *PartitionSub) alg[float64] {
	return alg[float64]{
		k:   semiring.LogSumExpKernels(),
		s1:  ps.S1.Data(),
		s2:  ps.S2.Data(),
		sc1: ps.Sc1,
		sc2: ps.Sc2,
		isc: ps.Isc,
		n1:  p.N1,
		n2:  p.N2,
	}
}

// PartitionDomain names the domain a filled partition table holds.
type PartitionDomain int

const (
	// DomainLog: cells are log partition values (log-sum-exp fill).
	DomainLog PartitionDomain = iota
	// DomainScaled: cells are scaled partition values (sum-product fill);
	// read them through PartitionLogAt.
	DomainScaled
)

// String returns the domain's label.
func (d PartitionDomain) String() string {
	if d == DomainScaled {
		return "scaled"
	}
	return "log"
}

// SolvePartitionContext fills the float64 BPPart table for p under the
// given schedule variant, with the same cancellation and panic-isolation
// contract as SolveContext. The optimized variants fill in the scaled
// probability domain and fall back to the log domain when the scaled values
// leave float64's normal range; base and reference always fill in the log
// domain. Read cells through PartitionLogAt (LogZ: PartitionLogZ), which
// returns log values whichever domain the table holds. Results are not
// bit-identical across variants or domains — floating-point sums are not
// associative — but agree to tight relative tolerance; the cross-variant
// and domain-parity tests pin that.
func SolvePartitionContext(ctx context.Context, p *Problem, ps *PartitionSub, v Variant, cfg Config) (ft *FTableOf[float64], err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	defer func() {
		if r := recover(); r != nil {
			ft, err = nil, capturePanic(r)
		}
	}()
	if e := ctx.Err(); e != nil {
		return nil, e
	}
	switch v {
	case VariantCoarse, VariantFine, VariantHybrid, VariantHybridTiled:
		return solvePartitionScaled(ctx, p, ps, v, cfg)
	}
	return solveAlg(ctx, p, partitionAlg(p, ps), v, cfg)
}

// solvePartitionScaled runs one optimized schedule in the scaled
// probability domain and checks the result; an out-of-range input or cell
// sends the fold to the log-domain fill instead. The factor tables live in
// one per-fold scratch buffer (pooled when the fold is), returned before
// this function does, so the only table the fold retains is the one it
// returns.
func solvePartitionScaled(ctx context.Context, p *Problem, ps *PartitionSub, v Variant, cfg Config) (*FTableOf[float64], error) {
	n1, n2 := p.N1, p.N2
	ls1, ls2 := logScale(ps.S1, n1), logScale(ps.S2, n2)
	size := 2*n1*n1 + 2*n2*n2 + n1*n2
	var buf []float64
	if cfg.Pool != nil {
		buf = cfg.Pool.buf64.Get(size)
	} else {
		buf = make([]float64, size)
	}
	var ft *FTableOf[float64]
	var err error
	if a, ok := scaledPartitionAlg(p, ps, ls1, ls2, buf); ok {
		ft, err = solveAlg(ctx, p, a, v, cfg)
		if err == nil && !scaledCellsNormal(ft) {
			ft.Release()
			ft = nil
		}
	}
	if cfg.Pool != nil {
		cfg.Pool.buf64.Put(buf)
	}
	if err != nil {
		return nil, err
	}
	if ft == nil {
		return solveAlg(ctx, p, partitionAlg(p, ps), v, cfg)
	}
	ft.scaled, ft.logS1, ft.logS2 = true, ls1, ls2
	return ft, nil
}

// logScale is the per-nucleotide log scale of one strand: its whole-strand
// log partition value over its length, so the strand's own scaled
// single-strand sum is exactly 1.
func logScale(s *nussinov.GTable[float64], n int) float64 {
	if n == 0 {
		return 0
	}
	return s.At(0, n-1) / float64(n)
}

// normal reports whether v is a finite, normal, positive float64 — the
// range where a product or sum of scaled factors loses no more than an ulp
// of relative precision.
func normal(v float64) bool { return v >= 0x1p-1022 && v <= math.MaxFloat64 }

// scaledPartitionAlg fills buf with the scaled probability-domain factor
// tables of one fold and returns the algebra view over them. Each factor
// carries s^{-len} for the bases it covers: a substrate cell S[i,j] its
// j-i+1 bases, an intramolecular pair its two, an intermolecular bond one
// base of each strand. ok is false when any factor of an allowed weight is
// not a finite normal float64 — the fold must then run in the log domain.
func scaledPartitionAlg(p *Problem, ps *PartitionSub, ls1, ls2 float64, buf []float64) (a alg[float64], ok bool) {
	n1, n2 := p.N1, p.N2
	take := func(n int) []float64 {
		b := buf[:n:n]
		buf = buf[n:]
		return b
	}
	a = alg[float64]{
		k:    semiring.SumProductKernels(),
		s1:   take(n1 * n1),
		s2:   take(n2 * n2),
		sc1:  take(n1 * n1),
		sc2:  take(n2 * n2),
		isc:  take(n1 * n2),
		n1:   n1,
		n2:   n2,
		prob: true,
	}
	ok = scaleSubstrate(a.s1, ps.S1, ls1) &&
		scaleSubstrate(a.s2, ps.S2, ls2) &&
		scaleFactors(a.sc1, ps.Sc1, 2*ls1) &&
		scaleFactors(a.sc2, ps.Sc2, 2*ls2) &&
		scaleFactors(a.isc, ps.Isc, ls1+ls2)
	return a, ok
}

// scaleSubstrate writes e^{S[i,j] - (j-i+1)·ls} for every cell j >= i of
// a log-domain substrate table; false if any lands outside the normal range.
func scaleSubstrate(dst []float64, s *nussinov.GTable[float64], ls float64) bool {
	n := s.N
	src := s.Data()
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := math.Exp(src[i*n+j] - float64(j-i+1)*ls)
			if !normal(v) {
				return false
			}
			dst[i*n+j] = v
		}
	}
	return true
}

// scaleFactors writes e^{w - off} per weight; forbidden weights (-Inf)
// become an exact 0. False if an allowed weight's factor is not normal.
func scaleFactors(dst, w []float64, off float64) bool {
	for i, x := range w {
		if math.IsInf(x, -1) {
			dst[i] = 0
			continue
		}
		v := math.Exp(x - off)
		if !normal(v) {
			return false
		}
		dst[i] = v
	}
	return true
}

// scaledCellsNormal reports whether every stored cell of a scaled-domain
// table is a finite normal float64. Every cell is a sum of positive terms
// that includes the all-unpaired derivation, so 0, subnormal, Inf and NaN
// all mean the fill left float64's safe range (an overflow anywhere
// surfaces as Inf or NaN in the cell it was summed into).
func scaledCellsNormal(f *FTableOf[float64]) bool {
	n2 := f.N2
	for i1 := 0; i1 < f.N1; i1++ {
		for j1 := i1; j1 < f.N1; j1++ {
			blk := f.Block(i1, j1)
			for i2 := 0; i2 < n2; i2++ {
				for _, v := range f.Row(blk, i2)[i2:n2] {
					if !normal(v) {
						return false
					}
				}
			}
		}
	}
	return true
}

// PartitionDomainOf reports which domain a filled partition table holds.
func PartitionDomainOf(f *FTableOf[float64]) PartitionDomain {
	if f.scaled {
		return DomainScaled
	}
	return DomainLog
}

// PartitionLogAt returns the log partition value of cell F[i1,j1,i2,j2]
// (a stored cell: both intervals non-empty) of a filled partition table,
// undoing the per-nucleotide scale of a scaled-domain table. Every cell's
// ensemble contains the all-unpaired derivation (weight One), so its log is
// at least 0; the scale round trip can undershoot that by an ulp, and the
// read clamps it back to the exact bound.
func PartitionLogAt(f *FTableOf[float64], i1, j1, i2, j2 int) float64 {
	v := f.At(i1, j1, i2, j2)
	if !f.scaled {
		return v
	}
	return max(0, math.Log(v)+float64(j1-i1+1)*f.logS1+float64(j2-i2+1)*f.logS2)
}

// PartitionLogZ reads the whole-pair log-partition value from a filled
// BPPart table.
func PartitionLogZ(p *Problem, f *FTableOf[float64]) float64 {
	return PartitionLogAt(f, 0, p.N1-1, 0, p.N2-1)
}
