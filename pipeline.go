// The fold pipeline: one request spine shared by every public entry point.
//
// Fold/FoldContext, FoldBatch, ScanWindowed(Context), FoldSingle(Context)
// and SingleEnsemble are thin adapters: each parses its options exactly once
// into a request (buildOptions) and hands it to a run* method here. The
// request then flows through the same explicit stages regardless of entry
// point:
//
//	normalize/validate → admission → cache → budget/degrade → solve → finalize
//
// Admission (WithAdmission) bounds how many requests solve at once, queuing
// the rest FIFO and failing queued requests fast — with a typed
// *AdmissionError — when their context expires. The content-addressed cache
// (WithCache) memoizes Nussinov substrate tables per strand and whole fold
// results per request, with single-flight deduplication of concurrent
// identical folds; its retained bytes are charged against WithMemoryLimit
// alongside the pool's. The budget/degrade ladder and the solver calls live
// only here — no other root-package file touches the internal solvers.
//
// Stage methods have value receivers: a request copy is a flat struct, so
// batch workers and option-local mutations (cfg.Metrics wiring, pool
// stripping for cache masters) never race on shared state.
//
// See docs/ARCHITECTURE.md for the full stage diagram and semantics.

package bpmax

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	ibpmax "github.com/bpmax-go/bpmax/internal/bpmax"
	"github.com/bpmax-go/bpmax/internal/fault"
	"github.com/bpmax-go/bpmax/internal/fourrussians"
	imetrics "github.com/bpmax-go/bpmax/internal/metrics"
	"github.com/bpmax-go/bpmax/internal/nussinov"
	"github.com/bpmax-go/bpmax/internal/pipeline"
	"github.com/bpmax-go/bpmax/internal/rna"
	"github.com/bpmax-go/bpmax/internal/score"
	"github.com/bpmax-go/bpmax/internal/semiring"
	itrace "github.com/bpmax-go/bpmax/internal/trace"
)

// request is the parsed, validated form of one pipeline request: the
// accumulated options plus everything resolvable before any sequence is
// seen — the scoring parameters and the internal schedule variant (or the
// error naming an unknown one, surfaced only by entry points that solve the
// interaction DP; single-strand entry points ignore the variant, as they
// always have). buildOptions produces it exactly once per call, and once
// per batch.
type request struct {
	options
	sp   score.Params
	v    ibpmax.Variant
	verr error
	// salgo is the resolved substrate algorithm (aerr names an unknown
	// WithSubstrateAlgorithm value); subMax/subInt cache the model's
	// IntegerBounded capability, which together with salgo decides whether
	// the Four-Russians fast path fills the S tables.
	salgo  nussinov.Algo
	aerr   error
	subMax int
	subInt bool
	// algErr names an unknown WithAlgebra value or an invalid WithKT; the
	// resolved algebra and kT themselves live in the embedded options
	// (buildOptions normalizes the defaults in).
	algErr error
	// tr is the per-request trace carried by the call's context (nil in the
	// common disarmed case — every recording through it is then a no-op).
	// It is looked up once per run* entry, never per stage, and it is
	// deliberately NOT cfg.Tracer: a request trace observes the pipeline —
	// including cache hits — whereas WithTracer instruments a real fill and
	// therefore bypasses the result cache. The trace joins cfg.Tracer only
	// on the cold-solve path (foldCold / windowedAttempt), after the cache
	// decision is made.
	tr *itrace.Trace
}

// admit is the admission-control stage. A nil error means either no gate is
// configured or a slot is held; the caller must pair it with one unadmit.
func (rq request) admit(ctx context.Context) error {
	if rq.admission == nil {
		return nil
	}
	return rq.admission.a.Acquire(ctx)
}

// unadmit returns the admission slot, waking the front of the wait queue.
func (rq request) unadmit() {
	if rq.admission != nil {
		rq.admission.a.Release()
	}
}

// cacheRetained is the cache's current retained storage, charged against
// WithMemoryLimit budgets alongside the pool's retention.
func (rq request) cacheRetained() int64 {
	if rq.cache == nil {
		return 0
	}
	return rq.cache.c.RetainedBytes()
}

// runFold executes one interaction fold through the full pipeline,
// re-running transiently failed attempts when WithRetry is configured.
func (rq request) runFold(ctx context.Context, seq1, seq2 string) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	rq.tr = itrace.FromContext(ctx)
	if rq.verr != nil {
		rq.metrics.RecordError()
		return nil, rq.verr
	}
	if rq.aerr != nil {
		rq.metrics.RecordError()
		return nil, rq.aerr
	}
	if rq.algErr != nil {
		rq.metrics.RecordError()
		return nil, rq.algErr
	}
	if rq.retry == nil {
		// No policy: skip the wrapper — its attempt closure captures the
		// request, a per-fold cost the cached-hit path would pay for nothing.
		return rq.foldAttempt(ctx, seq1, seq2)
	}
	return withRetry(ctx, rq, func() (*Result, error) {
		return rq.foldAttempt(ctx, seq1, seq2)
	})
}

// withRetry runs attempt under the request's retry policy: a transient
// failure (IsTransient — recovered panics and injected faults, never
// cancellation, budget or admission errors) backs off exponentially with
// deterministic jitter and runs again, until success, a non-transient
// error, the attempt budget, or the context ends. Each attempt re-admits
// through the gate, so a backing-off request holds no concurrency slot.
func withRetry[T any](ctx context.Context, rq request, attempt func() (T, error)) (T, error) {
	v, err := attempt()
	if err == nil || rq.retry == nil {
		return v, err
	}
	retried := false
	for n := 1; n < rq.retry.MaxAttempts && isTransientFold(err) && ctx.Err() == nil; n++ {
		rq.metrics.RecordRetry()
		retried = true
		if !sleepBackoff(ctx, rq.retry.backoff(n)) {
			break
		}
		if v, err = attempt(); err == nil {
			rq.metrics.RecordRetrySuccess()
			return v, nil
		}
	}
	if retried {
		rq.metrics.RecordRetryExhausted()
	}
	return v, err
}

// sleepBackoff sleeps d unless ctx ends first; it reports whether the next
// attempt should run.
func sleepBackoff(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// foldAttempt is one pass through admission → cache → solve. The deferred
// recover is the pipeline-level panic isolation: a panic escaping the
// solver's own recovery (injected faults outside the parallel runtime,
// grant-path panics) surfaces as a typed *PanicError instead of unwinding
// into the caller — and because the unadmit defer is registered after it,
// the admission slot is resolved before the recover converts the panic.
func (rq request) foldAttempt(ctx context.Context, seq1, seq2 string) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, recoveredError(r)
			rq.metrics.RecordError()
		}
	}()
	qs := rq.tr.Begin()
	err = rq.admit(ctx)
	rq.tr.End(itrace.StageQueue, qs)
	if err != nil {
		rq.metrics.RecordError()
		return nil, err
	}
	defer rq.unadmit()
	// Instrumented folds always solve: per-fold metrics describe a real
	// fill, so WithMetrics/WithTracer bypasses the result cache (the
	// substrate cache still applies — it only shortens the substrate phase).
	// A request trace (rq.tr) is not "instrumented" in this sense: it
	// observes the pipeline as served, cache hits included.
	if c := rq.cache; c != nil && c.resultsOn() && !rq.observed() {
		return rq.foldShared(ctx, seq1, seq2)
	}
	return rq.foldCold(ctx, seq1, seq2)
}

// foldShared serves the fold from the result cache. A hit returns a copy of
// the retained master result; concurrent identical requests single-flight
// behind one solve; a miss computes an unpooled master whose tables the
// cache retains. The master is unpooled on purpose: cache hits share its
// tables indefinitely, so no pool may ever recycle (and re-fill) them.
func (rq request) foldShared(ctx context.Context, seq1, seq2 string) (*Result, error) {
	c := rq.cache
	key := rq.resultKey(seq1, seq2)
	if !c.admitShared(key) {
		// This key's circuit breaker is open: its single-flight leaders have
		// kept failing, so serving more requests through the cache would
		// stack retries behind a poisoned leader. Serve cold (pooled, never
		// retained) until the cooldown admits a probe that succeeds.
		return rq.foldCold(ctx, seq1, seq2)
	}
	cs := rq.tr.Begin()
	v, hit, shared, err := c.c.Do(ctx, key, func() (v any, bytes int64, err error) {
		// A panicking leader must fail typed: waiters then observe a
		// transient *PanicError they can retry (or retry-as-leader on),
		// rather than the cache's generic in-flight-panic error.
		defer func() {
			if r := recover(); r != nil {
				v, bytes, err = nil, 0, recoveredError(r)
			}
		}()
		if err := fault.Hit(fault.SiteCacheLeader); err != nil {
			return nil, 0, err
		}
		m := rq
		m.pool = nil
		m.cfg.Pool = nil
		master, err := m.foldCold(ctx, seq1, seq2)
		if err != nil {
			return nil, 0, err
		}
		return master, cachedResultBytes(master), nil
	})
	c.noteShared(key, err)
	// Attribute the cache outcome: a hit's whole Do time is cache service, a
	// waiter's is time parked behind another request's in-flight solve. The
	// single-flight leader records nothing here — its solve recorded its own
	// substrate/fill spans inside Do, and double-charging the same wall time
	// would break the trace ledger.
	switch {
	case hit:
		rq.tr.End(itrace.StageCacheHit, cs)
	case shared:
		rq.tr.End(itrace.StageCacheWait, cs)
	}
	if err != nil {
		rq.metrics.RecordError()
		return nil, err
	}
	switch {
	case hit:
		c.resultHits.Add(1)
	case !shared:
		c.resultMisses.Add(1)
	}
	return rq.adoptCached(v.(*Result)), nil
}

// adoptCached wraps a retained master result in a fresh (possibly pooled)
// shell. Copies share the master's immutable tables, so Release on a copy
// recycles only the shell; the master — which the cache and other copies
// still reference — is never handed out directly.
func (rq request) adoptCached(m *Result) *Result {
	res := rq.getResult()
	pool := res.pool
	*res = *m
	res.pool = pool
	if m.Window != nil {
		win := rq.getWindowResult()
		wpool := win.pool
		*win = *m.Window
		win.pool = wpool
		res.Window = win
	}
	return res
}

// foldCold is the solve spine: substrate → budget/degrade → fill → finalize.
func (rq request) foldCold(ctx context.Context, seq1, seq2 string) (*Result, error) {
	// The result shell is acquired before the solve so per-fold metrics
	// record straight into Result.Metrics — no separate sink, no extra
	// allocation on the steady-state path. Error exits hand it back.
	res := rq.getResult()
	// Join the request trace into the solver's tracer here — after the
	// cache decision in foldAttempt — so traced requests still serve from
	// the result cache while cold solves feed their phase spans (substrate,
	// accumulate, finalize, triangle) into the trace through the existing
	// Tracer plumbing. This arms observed(), so a traced fold also records
	// per-fold metrics, exactly as WithTracer would.
	if rq.tr != nil {
		rq.cfg.Tracer = rq.tr.Join(rq.cfg.Tracer)
	}
	if rq.observed() {
		rq.cfg.Metrics = &res.Metrics
	}
	sub := imetrics.Begin(rq.cfg.Metrics, rq.cfg.Tracer, imetrics.PhaseSubstrate)
	p, err := rq.newProblem(seq1, seq2)
	if err != nil {
		// Close the span with zero units so the Tracer's Begin/End stays
		// balanced on construction failures (bad input, injected faults).
		sub.End(0)
		rq.putResult(res)
		rq.metrics.RecordError()
		return nil, err
	}
	sub.End(1)
	cfg, deg, err := rq.budget(p.N1, p.N2)
	if err != nil {
		p.Release()
		rq.putResult(res)
		rq.metrics.RecordError()
		return nil, err
	}
	if deg == DegradeWindowed {
		return rq.foldViaWindow(ctx, p, res)
	}
	if rq.algebra == AlgebraPartition {
		return rq.foldPartition(ctx, p, res, cfg, deg)
	}
	if rq.observed() && rq.memLimit > 0 {
		res.Metrics.BudgetEstimateBytes = rq.chargeBytes(p.N1, p.N2, cfg.Map)
	}
	start := time.Now()
	ft, err := ibpmax.SolveContext(ctx, p, rq.v, cfg)
	if err != nil {
		p.Release()
		rq.putResult(res)
		rq.metrics.RecordError()
		return nil, err
	}
	elapsed := time.Since(start)
	res.Score = p.Score(ft)
	res.Algebra = AlgebraMaxPlus
	res.N1 = p.N1
	res.N2 = p.N2
	res.FLOPs = ibpmax.BPMaxFlops(p.N1, p.N2)
	res.Elapsed = elapsed
	res.TableBytes = ft.Bytes()
	res.Degradation = deg
	res.prob = p
	res.ft = ft
	if rq.observed() {
		res.Metrics.Algebra = string(AlgebraMaxPlus)
		res.Metrics.FillNanos = int64(elapsed)
		res.Metrics.Cells = ibpmax.CellElements(p.N1, p.N2)
		res.Metrics.FLOPs = res.FLOPs
		res.Metrics.TableBytes = res.TableBytes
		res.Metrics.Degraded = deg.String()
		rq.metrics.RecordFold(&res.Metrics)
	}
	return res, nil
}

// foldPartition is the AlgebraPartition tail of foldCold: Boltzmann
// substrate → float64 partition fill (scaled probability domain, log-domain
// fallback) → LogZ finalize. The max-plus S¹/S²
// substrates were already installed on p (SingleScore and the substrate
// cache still serve them); this stage adds the scaled float64 set, shared
// through the cache when one is configured.
func (rq request) foldPartition(ctx context.Context, p *ibpmax.Problem, res *Result, cfg ibpmax.Config, deg Degradation) (*Result, error) {
	sub := imetrics.Begin(rq.cfg.Metrics, rq.cfg.Tracer, imetrics.PhaseSubstrate)
	ps, err := rq.buildPartitionSub(ctx, p)
	if err != nil {
		sub.End(0)
		p.Release()
		rq.putResult(res)
		rq.metrics.RecordError()
		return nil, err
	}
	sub.End(1)
	if rq.observed() && rq.memLimit > 0 {
		res.Metrics.BudgetEstimateBytes = rq.chargeBytes(p.N1, p.N2, cfg.Map)
	}
	start := time.Now()
	ft, err := ibpmax.SolvePartitionContext(ctx, p, ps, rq.v, cfg)
	if err != nil {
		p.Release()
		rq.putResult(res)
		rq.metrics.RecordError()
		return nil, err
	}
	elapsed := time.Since(start)
	res.Algebra = AlgebraPartition
	res.KT = rq.kT
	res.LogZ = ibpmax.PartitionLogZ(p, ft)
	if p.N1 > 0 {
		res.LogZ1 = ps.S1.At(0, p.N1-1)
	}
	if p.N2 > 0 {
		res.LogZ2 = ps.S2.At(0, p.N2-1)
	}
	res.N1 = p.N1
	res.N2 = p.N2
	res.FLOPs = ibpmax.BPMaxFlops(p.N1, p.N2)
	res.Elapsed = elapsed
	res.TableBytes = ft.Bytes()
	res.Degradation = deg
	res.prob = p
	res.ft64 = ft
	res.ps = ps
	if rq.observed() {
		res.Metrics.Algebra = string(AlgebraPartition)
		res.Metrics.PartitionDomain = ibpmax.PartitionDomainOf(ft).String()
		res.Metrics.FillNanos = int64(elapsed)
		res.Metrics.Cells = ibpmax.CellElements(p.N1, p.N2)
		res.Metrics.FLOPs = res.FLOPs
		res.Metrics.TableBytes = res.TableBytes
		res.Metrics.Degraded = deg.String()
		rq.metrics.RecordFold(&res.Metrics)
	}
	return res, nil
}

// buildPartitionSub builds (or cache-shares) the Boltzmann substrate for a
// partition fold. With a substrate cache, each strand's float64 log-sum-exp
// S table is keyed by (model, hairpin, kT, bases) — partitionSubKey — and
// shared across folds exactly like the max-plus S tables; the tables built
// here are never pooled, so retaining them directly is safe.
func (rq request) buildPartitionSub(ctx context.Context, p *ibpmax.Problem) (*ibpmax.PartitionSub, error) {
	c := rq.cache
	if c == nil || !c.substratesOn() {
		return ibpmax.BuildPartitionSub(ctx, p, rq.kT)
	}
	var s1, s2 *nussinov.GTable[float64]
	k1 := partitionSubKey(p.Seq1, rq.sp, rq.kT)
	if v, ok := c.c.Get(k1); ok {
		c.substrateHits.Add(1)
		s1 = v.(*nussinov.GTable[float64])
	} else {
		c.substrateMisses.Add(1)
	}
	k2 := partitionSubKey(p.Seq2, rq.sp, rq.kT)
	if v, ok := c.c.Get(k2); ok {
		c.substrateHits.Add(1)
		s2 = v.(*nussinov.GTable[float64])
	} else {
		c.substrateMisses.Add(1)
	}
	ps, err := ibpmax.BuildPartitionSubShared(ctx, p, rq.kT, s1, s2)
	if err != nil {
		return nil, err
	}
	if s1 == nil {
		c.c.Add(k1, ps.S1, ps.S1.Bytes())
	}
	if s2 == nil {
		c.c.Add(k2, ps.S2, ps.S2.Bytes())
	}
	return ps, nil
}

// newProblem is the normalize/substrate stage: parse (pooled or fresh),
// build the score tables, then fill or share the S¹/S² substrates.
func (rq request) newProblem(seq1, seq2 string) (*ibpmax.Problem, error) {
	var p *ibpmax.Problem
	if rq.pool != nil {
		// Pooled path: the problem shell (sequence buffers, score tables)
		// is recycled through the pool. Validation errors carry the sequence
		// index; rewrap them into the same message shape as below.
		var err error
		p, err = rq.pool.p.NewProblemShell(seq1, seq2, rq.sp)
		if err != nil {
			var se *ibpmax.SequenceError
			if errors.As(err, &se) {
				return nil, fmt.Errorf("bpmax: sequence %d: %w", se.Index, se.Err)
			}
			return nil, err
		}
	} else {
		s1, err := rna.New(seq1)
		if err != nil {
			return nil, fmt.Errorf("bpmax: sequence 1: %w", err)
		}
		s2, err := rna.New(seq2)
		if err != nil {
			return nil, fmt.Errorf("bpmax: sequence 2: %w", err)
		}
		p, err = ibpmax.NewProblemShell(s1, s2, rq.sp)
		if err != nil {
			return nil, err
		}
	}
	// Failpoint: substrate-stage failure after the shell exists. Error mode
	// releases the shell back to its pool before failing the fold; panic
	// mode leaks the shell deliberately (a panicking stage cannot prove the
	// shell is clean, and an unreleased shell is garbage-collected, never
	// dirtily reused).
	if ferr := fault.Hit(fault.SiteSubstrate); ferr != nil {
		p.Release()
		return nil, ferr
	}
	rq.installSubstrates(p)
	return p, nil
}

// installSubstrates fills the S¹/S² tables, or — with a substrate cache —
// shares the cached table for any strand already folded under the same
// scoring parameters, skipping its O(n³) refill. Cached tables installed on
// a pooled problem are read-only; the problem parks its own storage and
// restores it on reuse.
func (rq request) installSubstrates(p *ibpmax.Problem) {
	c := rq.cache
	if c == nil || !c.substratesOn() {
		p.BuildS1Algo(rq.salgo)
		p.BuildS2Algo(rq.salgo)
		return
	}
	// Substrate keys carry no algorithm component on purpose: every
	// algorithm produces bit-identical tables (see WithSubstrateAlgorithm),
	// so a table built by either fill serves requests asking for any.
	k1 := substrateKey(p.Seq1, rq.sp)
	if v, ok := c.c.Get(k1); ok {
		c.substrateHits.Add(1)
		p.ShareS1(v.(*nussinov.Table))
	} else {
		c.substrateMisses.Add(1)
		p.BuildS1Algo(rq.salgo)
		c.insertSubstrate(k1, p.S1, rq.pool != nil)
	}
	k2 := substrateKey(p.Seq2, rq.sp)
	if v, ok := c.c.Get(k2); ok {
		c.substrateHits.Add(1)
		p.ShareS2(v.(*nussinov.Table))
	} else {
		c.substrateMisses.Add(1)
		p.BuildS2Algo(rq.salgo)
		c.insertSubstrate(k2, p.S2, rq.pool != nil)
	}
}

// chargeBytes is the full-table estimate the budget charges a fold:
// pool-aware when pooled, analytic otherwise, plus the cache's retention.
// Partition folds are charged at their true element width (8-byte cells
// against the float64 arena) plus the Boltzmann substrate they build.
func (rq request) chargeBytes(n1, n2 int, kind ibpmax.MapKind) int64 {
	if rq.algebra == AlgebraPartition {
		base := ibpmax.EstimateBytesSized(n1, n2, kind, 8)
		if rq.pool != nil {
			base = rq.pool.p.ChargeBytes64(n1, n2, kind)
		}
		return base + partitionSubEstimate(n1, n2) + rq.cacheRetained()
	}
	base := ibpmax.EstimateBytes(n1, n2, kind)
	if rq.pool != nil {
		base = rq.pool.p.ChargeBytes(n1, n2, kind)
	}
	return base + rq.cacheRetained()
}

// partitionSubEstimate is the Boltzmann substrate's storage: the two scaled
// intramolecular matrices doubling as GTable inputs, the intermolecular
// matrix, and the two float64 S tables.
func partitionSubEstimate(n1, n2 int) int64 {
	a, b := int64(n1), int64(n2)
	return 8 * (2*a*a + 2*b*b + a*b)
}

// chargeWindowedBytes is chargeBytes for a banded scan.
func (rq request) chargeWindowedBytes(n1, n2, w1, w2 int) int64 {
	base := ibpmax.EstimateWindowedBytes(n1, n2, w1, w2)
	if rq.pool != nil {
		base = rq.pool.p.ChargeWindowedBytes(n1, n2, w1, w2)
	}
	return base + rq.cacheRetained()
}

// budget resolves the memory-limit policy for an n1 × n2 fold: it returns
// the (possibly downgraded) solver config and which degradation fired, or a
// *MemoryLimitError when nothing permitted fits. It allocates nothing.
//
// For a pooled fold the charge is the pool's footprint after serving the
// request: idle retained buffers plus the class-rounded allocation the fold
// would add if no idle buffer of its size class exists. A fold whose table
// fits an already-retained buffer is therefore charged the retention, not
// retention + table — pooling does not double-bill the budget. A configured
// cache's retained bytes are charged on top (they are process memory the
// budget must see), so a filling cache shrinks the headroom for new tables.
func (rq request) budget(n1, n2 int) (ibpmax.Config, Degradation, error) {
	cfg := rq.cfg
	if rq.memLimit <= 0 {
		return cfg, DegradeNone, nil
	}
	smallest := rq.chargeBytes(n1, n2, cfg.Map)
	if smallest <= rq.memLimit {
		return cfg, DegradeNone, nil
	}
	// Rung 1: the packed quarter-space map (no-op when already selected).
	if packed := rq.chargeBytes(n1, n2, ibpmax.MapPacked); packed <= rq.memLimit {
		cfg.Map = ibpmax.MapPacked
		return cfg, DegradePacked, nil
	} else if packed < smallest {
		smallest = packed
	}
	// Rung 2: the windowed scan, if the caller opted in. Partition folds
	// never take it — the banded fill is max-plus only — so an over-budget
	// partition request fails with the typed error instead of degrading.
	if rq.degradeW1 > 0 && rq.degradeW2 > 0 && rq.algebra != AlgebraPartition {
		if w := rq.chargeWindowedBytes(n1, n2, rq.degradeW1, rq.degradeW2); w <= rq.memLimit {
			return cfg, DegradeWindowed, nil
		} else if w < smallest {
			smallest = w
		}
	}
	return cfg, DegradeNone, &MemoryLimitError{EstimateBytes: smallest, LimitBytes: rq.memLimit}
}

// foldViaWindow runs the windowed-scan rung of the degradation ladder and
// wraps it as a Result (Degradation == DegradeWindowed, Window set). The
// caller's result shell comes in so the scan's metrics accumulate into the
// same Result.Metrics the substrate span already wrote.
func (rq request) foldViaWindow(ctx context.Context, p *ibpmax.Problem, res *Result) (*Result, error) {
	if rq.observed() && rq.memLimit > 0 {
		res.Metrics.BudgetEstimateBytes = rq.chargeWindowedBytes(p.N1, p.N2, rq.degradeW1, rq.degradeW2)
	}
	start := time.Now()
	wt, err := ibpmax.SolveWindowedContext(ctx, p, rq.degradeW1, rq.degradeW2, rq.cfg)
	if err != nil {
		p.Release()
		rq.putResult(res)
		rq.metrics.RecordError()
		return nil, err
	}
	elapsed := time.Since(start)
	best, i1, j1, i2, j2 := wt.Best()
	win := rq.getWindowResult()
	win.Best, win.I1, win.J1, win.I2, win.J2 = best, i1, j1, i2, j2
	win.TableBytes = wt.Bytes()
	win.Elapsed = elapsed
	win.wt = wt
	win.prob = p
	res.Score = best
	res.Algebra = AlgebraMaxPlus
	res.N1 = p.N1
	res.N2 = p.N2
	res.Elapsed = elapsed
	res.TableBytes = wt.Bytes()
	res.Degradation = DegradeWindowed
	res.Window = win
	res.prob = p
	if rq.observed() {
		res.Metrics.FillNanos = int64(elapsed)
		res.Metrics.TableBytes = res.TableBytes
		res.Metrics.Degraded = DegradeWindowed.String()
		win.Metrics = res.Metrics
		rq.metrics.RecordFold(&res.Metrics)
	}
	return res, nil
}

// runWindowed executes a windowed scan through the pipeline. Windowed scans
// use the substrate cache but not the result cache (the banded table is the
// deliverable and typically as large as the substrate; retaining it per
// request would evict far more useful entries).
func (rq request) runWindowed(ctx context.Context, seq1, seq2 string, w1, w2 int) (*WindowResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if w1 <= 0 || w2 <= 0 {
		return nil, fmt.Errorf("bpmax: windows must be positive (got %d, %d)", w1, w2)
	}
	rq.tr = itrace.FromContext(ctx)
	if rq.aerr != nil {
		rq.metrics.RecordError()
		return nil, rq.aerr
	}
	if rq.algErr != nil {
		rq.metrics.RecordError()
		return nil, rq.algErr
	}
	if rq.algebra == AlgebraPartition {
		rq.metrics.RecordError()
		return nil, fmt.Errorf("bpmax: windowed scans are max-plus only; partition folds have no banded form")
	}
	if rq.retry == nil {
		return rq.windowedAttempt(ctx, seq1, seq2, w1, w2)
	}
	return withRetry(ctx, rq, func() (*WindowResult, error) {
		return rq.windowedAttempt(ctx, seq1, seq2, w1, w2)
	})
}

// windowedAttempt is one pass of runWindowed, with the same panic isolation
// and slot-resolution ordering as foldAttempt.
func (rq request) windowedAttempt(ctx context.Context, seq1, seq2 string, w1, w2 int) (res *WindowResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, recoveredError(r)
			rq.metrics.RecordError()
		}
	}()
	qs := rq.tr.Begin()
	err = rq.admit(ctx)
	rq.tr.End(itrace.StageQueue, qs)
	if err != nil {
		rq.metrics.RecordError()
		return nil, err
	}
	defer rq.unadmit()
	// Like foldCold, the shell comes first so metrics record in place, and
	// the request trace joins the solver tracer the same way (windowed scans
	// never use the result cache, so there is no cache decision to respect).
	win := rq.getWindowResult()
	if rq.tr != nil {
		rq.cfg.Tracer = rq.tr.Join(rq.cfg.Tracer)
	}
	if rq.observed() {
		rq.cfg.Metrics = &win.Metrics
	}
	sub := imetrics.Begin(rq.cfg.Metrics, rq.cfg.Tracer, imetrics.PhaseSubstrate)
	p, err := rq.newProblem(seq1, seq2)
	if err != nil {
		sub.End(0) // balanced Begin/End on construction failures
		rq.putWindowResult(win)
		rq.metrics.RecordError()
		return nil, err
	}
	sub.End(1)
	if rq.memLimit > 0 {
		est := rq.chargeWindowedBytes(p.N1, p.N2, w1, w2)
		if est > rq.memLimit {
			p.Release()
			rq.putWindowResult(win)
			rq.metrics.RecordError()
			return nil, &MemoryLimitError{EstimateBytes: est, LimitBytes: rq.memLimit}
		}
		if rq.observed() {
			win.Metrics.BudgetEstimateBytes = est
		}
	}
	start := time.Now()
	wt, err := ibpmax.SolveWindowedContext(ctx, p, w1, w2, rq.cfg)
	if err != nil {
		p.Release()
		rq.putWindowResult(win)
		rq.metrics.RecordError()
		return nil, err
	}
	elapsed := time.Since(start)
	best, i1, j1, i2, j2 := wt.Best()
	win.Best, win.I1, win.J1, win.I2, win.J2 = best, i1, j1, i2, j2
	win.TableBytes = wt.Bytes()
	win.Elapsed = elapsed
	win.wt = wt
	win.prob = p
	if rq.observed() {
		win.Metrics.FillNanos = int64(elapsed)
		win.Metrics.TableBytes = win.TableBytes
		rq.metrics.RecordFold(&win.Metrics)
	}
	return win, nil
}

// runSingle executes a single-strand fold through the pipeline. The S table
// comes from the substrate cache when possible — it is the same table an
// interaction fold builds for that strand, so single folds and screens
// share entries.
func (rq request) runSingle(ctx context.Context, seq string) (*SingleResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s, err := rna.New(seq)
	if err != nil {
		return nil, fmt.Errorf("bpmax: %w", err)
	}
	if rq.aerr != nil {
		return nil, rq.aerr
	}
	rq.tr = itrace.FromContext(ctx)
	qs := rq.tr.Begin()
	err = rq.admit(ctx)
	rq.tr.End(itrace.StageQueue, qs)
	if err != nil {
		return nil, err
	}
	defer rq.unadmit()
	tab := score.Build(s, s, rq.sp)
	sc := func(i, j int) float32 { return tab.Score1(i, j) }
	t, err := rq.singleTable(ctx, s, sc)
	if err != nil {
		return nil, err
	}
	res := &SingleResult{N: s.Len()}
	if s.Len() > 0 {
		res.Score = t.At(0, s.Len()-1)
		tb := rq.tr.Begin()
		for _, p := range t.Traceback(sc) {
			res.Pairs = append(res.Pairs, Pair{p.I, p.J})
		}
		var np []nussinov.Pair
		for _, p := range res.Pairs {
			np = append(np, nussinov.Pair{I: p.I, J: p.J})
		}
		res.Bracket = nussinov.DotBracket(s.Len(), np)
		rq.tr.End(itrace.StageTraceback, tb)
	}
	return res, nil
}

// singleTable builds (or retrieves from the substrate cache) the S table
// for one strand. Cached tables are read-only and shared; traceback only
// reads them.
func (rq request) singleTable(ctx context.Context, s rna.Sequence, sc nussinov.ScoreFunc) (*nussinov.Table, error) {
	c := rq.cache
	if c == nil || !c.substratesOn() {
		sb := rq.tr.Begin()
		t, err := rq.buildSubstrate(ctx, s.Len(), sc)
		rq.tr.End(itrace.StageSubstrate, sb)
		return t, err
	}
	probe := rq.tr.Begin()
	k := substrateKey(s, rq.sp)
	if v, ok := c.c.Get(k); ok {
		c.substrateHits.Add(1)
		rq.tr.End(itrace.StageCacheHit, probe)
		return v.(*nussinov.Table), nil
	}
	c.substrateMisses.Add(1)
	sb := rq.tr.Begin()
	t, err := rq.buildSubstrate(ctx, s.Len(), sc)
	rq.tr.End(itrace.StageSubstrate, sb)
	if err != nil {
		return nil, err
	}
	c.c.Add(k, t, t.Bytes())
	return t, nil
}

// buildSubstrate builds one S table with the request's substrate algorithm:
// the Four-Russians wavefront build when the pick applies, the classic one
// otherwise. Same cancellation contract, bit-identical tables.
func (rq request) buildSubstrate(ctx context.Context, n int, sc nussinov.ScoreFunc) (*nussinov.Table, error) {
	if fourrussians.Pick(rq.salgo, n, rq.subMax, rq.subInt) {
		return fourrussians.BuildParallelContext(ctx, n, sc, rq.subMax, rq.cfg.Workers)
	}
	return nussinov.BuildParallelContext(ctx, n, sc, rq.cfg.Workers)
}

// runEnsemble executes the single-strand ensemble signal through the
// pipeline (validation, admission, and — with a result-caching cache — the
// content-addressed cache: the three semiring fills of a strand already
// seen under the same model and kT are served from their retained
// EnsembleResult instead of recomputed).
func (rq request) runEnsemble(seq string, kT float64) (*EnsembleResult, error) {
	if kT <= 0 {
		return nil, fmt.Errorf("bpmax: kT must be positive, got %v", kT)
	}
	s, err := rna.New(seq)
	if err != nil {
		return nil, fmt.Errorf("bpmax: %w", err)
	}
	if err := rq.admit(context.Background()); err != nil {
		return nil, err
	}
	defer rq.unadmit()
	var ek pipeline.Key
	c := rq.cache
	cached := c != nil && c.resultsOn()
	if cached {
		ek = ensembleKey(s, rq.sp, kT)
		if v, ok := c.c.Get(ek); ok {
			c.resultHits.Add(1)
			r := v.(EnsembleResult)
			return &r, nil
		}
		c.resultMisses.Add(1)
	}
	tab := score.Build(s, s, rq.sp)
	n := s.Len()
	logPair := func(i, j int) float64 {
		w := float64(tab.Score1(i, j))
		if w < -1e20 {
			return math.Inf(-1)
		}
		return w / kT
	}
	countPair := func(i, j int) float64 {
		if float64(tab.Score1(i, j)) < -1e20 {
			return 0
		}
		return 1
	}
	optPair := func(i, j int) semiring.Optimum {
		w := tab.Score1(i, j)
		if float64(w) < -1e20 {
			return semiring.MaxPlusCount{}.Zero()
		}
		return semiring.Optimum{Score: w, Count: 1}
	}
	res := &EnsembleResult{KT: kT}
	if n > 0 {
		res.LogZ = semiring.Fold[float64](semiring.LogSumExp{}, n, logPair).At(0, n-1)
		res.Structures = semiring.Fold[float64](semiring.Counting{}, n, countPair).At(0, n-1)
		res.Cooptimal = semiring.Fold[semiring.Optimum](semiring.MaxPlusCount{}, n, optPair).At(0, n-1).Count
	} else {
		res.Structures = 1
		res.Cooptimal = 1
	}
	if cached {
		// The entry is a value copy: immutable by construction, so hits can
		// hand out fresh copies with no sharing discipline. The charged cost
		// is the struct plus the cache's own entry bookkeeping.
		c.c.Add(ek, *res, int64(96))
	}
	return res, nil
}
