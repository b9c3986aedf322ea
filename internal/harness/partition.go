package harness

import (
	"context"
	"fmt"

	"github.com/bpmax-go/bpmax/internal/bpmax"
	"github.com/bpmax-go/bpmax/internal/perf"
)

func init() {
	register(Experiment{
		ID: "ext-partition", Title: "BPPart partition fill vs max-plus", PaperRef: "Section I (BPPart companion algorithm)",
		Run: runExtPartition,
	})
}

// runExtPartition times the same hybrid-tiled schedule under both algebras —
// the float32 max-plus fill and the float64 BPPart partition fill with its
// substrate build — on every configured size. The partition fill runs in
// the scaled probability domain (one multiply-add per streamed element), so
// the slowdown column is the cost of wider float64 cells, the Θ(n²)
// log-domain substrate and factor tables, and the missing Four-Russians fast
// path. Each size is also checked two ways: LogZ must agree with the
// log-sum-exp fill of the base schedule (the independent log-domain oracle)
// to 1e-12 relative, and must satisfy LogZ >= score/kT (lse >= max
// pointwise, so the inequality holds by induction). Either violation means
// the fill broke.
func runExtPartition(cfg RunConfig) *Table {
	t := &Table{
		ID: "ext-partition", Title: "BPPart partition fill vs max-plus", PaperRef: "Section I (BPPart companion algorithm)",
		Header: []string{"N1xN2", "maxplus time", "partition time", "slowdown", "domain", "logZ", "score/kT"},
	}
	const kT = 1.0
	ctx := context.Background()
	c := bpmax.Config{Workers: cfg.Workers}
	for _, sz := range cfg.sizes() {
		p := newProblem(cfg.Seed+int64(sz[1]), sz[0], sz[1])
		mp := timeBPMax(p, bpmax.VariantHybridTiled, c, cfg.repeats())
		score := float64(p.Score(bpmax.Solve(p, bpmax.VariantHybridTiled, c)))
		var logZ float64
		var domain bpmax.PartitionDomain
		// The partition window times the whole cold path — substrate scaling
		// and single-strand fills plus the pair fill — because that is what a
		// cache-miss partition request costs the server.
		pt := perf.Best(cfg.repeats(), bpmax.BPMaxFlops(sz[0], sz[1]), func() {
			ps, err := bpmax.BuildPartitionSub(ctx, p, kT)
			if err != nil {
				panic(err)
			}
			f, err := bpmax.SolvePartitionContext(ctx, p, ps, bpmax.VariantHybridTiled, c)
			if err != nil {
				panic(err)
			}
			logZ = bpmax.PartitionLogZ(p, f)
			domain = bpmax.PartitionDomainOf(f)
		})
		if want := logDomainLogZ(ctx, p, kT, c); abs(logZ-want) > 1e-12*max(1, abs(want)) {
			panic(fmt.Sprintf("harness: partition logZ %.17g disagrees with the log-sum-exp fill %.17g at %dx%d", logZ, want, sz[0], sz[1]))
		}
		// Ensemble >= MFE: the sum includes the optimal derivation.
		if bound := score / kT; logZ < bound-1e-6*(1+abs(bound)) {
			panic(fmt.Sprintf("harness: partition logZ %.9g < score/kT %.9g at %dx%d", logZ, bound, sz[0], sz[1]))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dx%d", sz[0], sz[1]),
			d2(mp.Elapsed),
			d2(pt.Elapsed),
			f2(perf.Speedup(pt.Elapsed, mp.Elapsed)) + "x",
			domain.String(),
			f2(logZ),
			f2(score / kT),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("kT=%g; partition time includes the Boltzmann substrate build (the server caches it per strand)", kT),
		"domain: scaled = sum-product over per-nucleotide-scaled Boltzmann factors; log = the log-sum-exp fallback",
		"logZ within 1e-12 relative of the base schedule's log-sum-exp fill, and >= score/kT, on every measured size")
	return t
}

// logDomainLogZ is the oracle LogZ: the base schedule, which always fills in
// the log-sum-exp domain.
func logDomainLogZ(ctx context.Context, p *bpmax.Problem, kT float64, c bpmax.Config) float64 {
	ps, err := bpmax.BuildPartitionSub(ctx, p, kT)
	if err != nil {
		panic(err)
	}
	f, err := bpmax.SolvePartitionContext(ctx, p, ps, bpmax.VariantBase, c)
	if err != nil {
		panic(err)
	}
	if bpmax.PartitionDomainOf(f) != bpmax.DomainLog {
		panic("harness: the base schedule left the log domain")
	}
	return bpmax.PartitionLogZ(p, f)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
