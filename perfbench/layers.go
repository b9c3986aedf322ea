package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/bpmax-go/bpmax"
	ib "github.com/bpmax-go/bpmax/internal/bpmax"
	"github.com/bpmax-go/bpmax/internal/nussinov"
	"github.com/bpmax-go/bpmax/internal/rna"
	"github.com/bpmax-go/bpmax/internal/roofline"
	"github.com/bpmax-go/bpmax/internal/score"
	"github.com/bpmax-go/bpmax/internal/trace"
	"github.com/bpmax-go/bpmax/internal/workload"
)

const mib = 1 << 20

// runTraced is the --trace 1 run. The workload is replayed to two fresh
// servers with the same inputs, one untraced (A) and one traced (B), in
// four slices of a quarter of the run's seconds each, ordered A B B A so
// slow drift of the host cancels out of the tracing overhead. The traced
// replay gives the server's own stage timings (Server-Timing, the
// /debug/requests ring) and /metrics deltas. Then, with no server running,
// an in-process layer pass times each module's public functions on the
// same generated inputs.
func (e *env) runTraced(ctx context.Context) (*Result, error) {
	sA, _, err := e.setup(ctx, false)
	if err != nil {
		return nil, err
	}
	sB, _, err := e.setup(ctx, true)
	if err != nil {
		return nil, err
	}
	m0, err := sB.Metrics()
	if err != nil {
		return nil, err
	}
	genA, genB := NewGenerator(e.w, e.seed, 0), NewGenerator(e.w, e.seed, 0)
	var mA, mB *measured
	for _, slice := range []struct {
		s   *Server
		tag string
		gen *Generator
		m   **measured
	}{{sA, "u", genA, &mA}, {sB, "t", genB, &mB}, {sB, "t", genB, &mB}, {sA, "u", genA, &mA}} {
		m, err := e.drive(ctx, slice.s, slice.tag, slice.gen, e.dur/4)
		if err != nil {
			return nil, err
		}
		if *slice.m == nil {
			*slice.m = m
		} else {
			(*slice.m).merge(m)
		}
	}
	m1, err := sB.Metrics()
	if err != nil {
		return nil, err
	}
	var ring trace.RingSnapshot
	if err := sB.getJSON("/debug/requests", &ring); err != nil {
		return nil, err
	}
	if err := e.stopAll(); err != nil {
		return nil, err
	}

	// One checker over both replays: the traced server must give the
	// untraced server's answers.
	chk := NewChecker(e.w)
	tA := e.count(mA, chk)
	tB := e.count(mB, chk)
	wrongBefore := chk.Wrong
	chk.Verify(e.seed)
	tB.wrong += chk.Wrong - wrongBefore

	out := map[string]Metric{}
	e.serverLayers(out, mA, mB, tA, tB, ring, m0, m1)

	rec := NewRecorder()
	if err := e.layerPass(ctx, rec, chk, e.dur/2, out); err != nil {
		return nil, err
	}
	spanFile := filepath.Join(e.workDir, fmt.Sprintf("spans-%s-seed%d.json", e.w.Name, e.seed))
	if err := rec.Write(spanFile); err != nil {
		return nil, err
	}
	fmt.Printf("wrote %d layer-pass spans to %s\n", len(rec.Spans), spanFile)
	for _, name := range sortedKeys(out) {
		fmt.Printf("%-44s %14.4f %s\n", name, out[name].Value, out[name].Unit)
	}
	for _, p := range chk.Errors {
		fmt.Println("WRONG:", p)
	}
	return &Result{
		Correct:   chk.Wrong == 0,
		Attempted: tA.sent + tB.sent,
		Failed:    tA.failed + tA.shed + tB.failed + tB.shed + chk.Wrong,
		Metrics:   out,
	}, nil
}

// stageMs collects one Server-Timing stage (ms) over the OK samples that
// report it.
func stageMs(samples []*Sample, stage string) []float64 {
	var xs []float64
	for _, s := range samples {
		if !s.ok() {
			continue
		}
		if d, ok := workload.ParseServerTiming(s.Timing)[stage]; ok {
			xs = append(xs, float64(d)/1e6)
		}
	}
	return xs
}

// lagsMs lists how late each request of p went out, in ms.
func lagsMs(p *Phase) []float64 {
	xs := make([]float64, len(p.Samples))
	for i, s := range p.Samples {
		xs[i] = float64(s.Lag()) / 1e6
	}
	return xs
}

func okLatencies(p *Phase) []float64 {
	var xs []float64
	for _, s := range p.Samples {
		if s.ok() {
			xs = append(xs, float64(s.Latency())/1e6)
		}
	}
	return xs
}

// serverLayers fills the metrics read from the traced replay: client and
// server timings, /metrics deltas, and the load generator's own counts.
func (e *env) serverLayers(out map[string]Metric, mA, mB *measured, tA, tB tally, ring trace.RingSnapshot, m0, m1 bpmax.MetricsSnapshot) {
	ms := func(name string, v float64) { out[name] = Metric{v, "ms"} }
	count := func(name string, v int64) { out[name] = Metric{float64(v), "count"} }
	share := func(name string, v float64) { out[name] = Metric{v, "ratio"} }
	mb := func(name string, v int64) { out[name] = Metric{float64(v) / mib, "MB"} }

	samples := mB.all
	decode := stageMs(samples, "decode")
	ms("bpmaxd.decode_ms_p50", median(decode))
	ms("bpmaxd.decode_ms_p99", pickTail(decode).Value)
	var encode []float64
	for _, snap := range ring.Recent {
		if !strings.HasPrefix(snap.ID, "t-") {
			continue
		}
		for _, st := range snap.Stages {
			if st.Stage == "encode" {
				encode = append(encode, float64(st.BusyNanos)/1e6)
			}
		}
	}
	ms("bpmaxd.encode_ms_p50", median(encode))
	ms("bpmaxd.encode_ms_p99", pickTail(encode).Value)
	ms("bpmaxd.other_ms_p99", pickTail(stageMs(samples, "other")).Value)
	var serverTotal, clientTotal float64
	for _, s := range samples {
		if d, ok := workload.ParseServerTiming(s.Timing)["total"]; ok && s.ok() {
			serverTotal += float64(d)
			clientTotal += float64(s.Done.Sub(s.Sent))
		}
	}
	share("bpmaxd.coverage", ratio(serverTotal, clientTotal))
	p50A, p50B := median(okLatencies(mA.latency)), median(okLatencies(mB.latency))
	thrA, thrB := e.throughput(mA, tA), e.throughput(mB, tB)
	out["bpmaxd.trace_overhead_pct"] = Metric{100 * (ratio(p50B, p50A) - 1), "%"}
	out["bpmaxd.trace_overhead_throughput_pct"] = Metric{100 * (1 - ratio(thrB, thrA)), "%"}

	queue := stageMs(samples, "queue")
	ms("pipeline.queue_wait_ms_p50", median(queue))
	ms("pipeline.queue_wait_ms_p99", pickTail(queue).Value)
	a0, a1 := orZero(m0.Admission), orZero(m1.Admission)
	count("pipeline.admission.admitted", a1.Admitted-a0.Admitted)
	count("pipeline.admission.rejected", a1.Rejected-a0.Rejected)
	count("pipeline.admission.expired", a1.Expired-a0.Expired)
	count("pipeline.admission.queue_depth_high_water", a1.QueueDepthHighWater)
	c0, c1 := orZero(m0.Cache), orZero(m1.Cache)
	share("pipeline.cache.result_hit_ratio", hitRatio(c1.ResultHits-c0.ResultHits, c1.ResultMisses-c0.ResultMisses))
	share("pipeline.cache.substrate_hit_ratio", hitRatio(c1.SubstrateHits-c0.SubstrateHits, c1.SubstrateMisses-c0.SubstrateMisses))
	ms("pipeline.cache.hit_ms_p50", median(stageMs(samples, "cache-hit")))
	count("pipeline.cache.singleflight_shared", c1.SingleFlightShared-c0.SingleFlightShared)
	ms("pipeline.cache.singleflight_wait_ms_p99", pickTail(stageMs(samples, "singleflight-wait")).Value)
	count("pipeline.cache.evictions", c1.Evictions-c0.Evictions)
	mb("pipeline.cache.retained_high_water_mb", c1.RetainedHighWater)

	e0, e1 := orZero(m0.Engine), orZero(m1.Engine)
	share("engine.helpers_recruited_ratio", hitRatio(e1.HelpersRecruited-e0.HelpersRecruited, (e1.HelperOffers-e0.HelperOffers)-(e1.HelpersRecruited-e0.HelpersRecruited)))
	count("engine.sequential_runs", e1.SequentialRuns-e0.SequentialRuns)
	p0, p1 := orZero(m0.Pool), orZero(m1.Pool)
	share("pool.hit_ratio", hitRatio(poolHits(p1)-poolHits(p0), poolMisses(p1)-poolMisses(p0)))
	mb("bufpool.retained_high_water_mb", p1.Buffers.RetainedHighWater)

	r0, r1 := orZero(m0.Runtime), orZero(m1.Runtime)
	count("runtime.gc_cycles", int64(r1.NumGC)-int64(r0.NumGC))
	ms("runtime.gc_pause_ms", float64(r1.GCPauseTotalNanos-r0.GCPauseTotalNanos)/1e6)
	mb("runtime.heap_high_water_mb", r1.HeapSysBytes)

	count("load.sent", int64(tB.sent))
	count("load.ok", int64(tB.ok))
	count("load.shed", int64(tB.shed))
	count("load.failed", int64(tB.failed))
	count("load.wrong", int64(tB.wrong))
	ms("load.lag_p99_ms", pickTail(lagsMs(mB.latency)).Value)
	share("load.error_rate", ratio(float64(tB.failed+tB.shed+tB.wrong), float64(tB.sent)))
}

func orZero[T any](p *T) T {
	if p == nil {
		var z T
		return z
	}
	return *p
}

func hitRatio(hits, misses int64) float64 { return ratio(float64(hits), float64(hits+misses)) }

func poolHits(p bpmax.PoolStats) int64 {
	return p.ProblemHits + p.FTableHits + p.WTableHits + p.SolverHits + p.ResultHits
}

func poolMisses(p bpmax.PoolStats) int64 {
	return p.ProblemMisses + p.FTableMisses + p.WTableMisses + p.SolverMisses + p.ResultMisses
}

// passSums accumulates the layer pass's per-call measurements.
type passSums struct {
	session, self, fill, traceback, strand, wfill, psub, pfill []float64 // ms

	fillSec, fill1Sec, dmpSec, wfillSec, pfillSec, subSec float64
	accumSec, finalSec, waccumSec                         float64
	flops, dmpFlops, tableBytes, mallocs, cells           float64
	tracedSec, plainSec                                   float64
	folds                                                 int
}

// layerPass times calls into each module's public functions on the
// workload's own inputs, recording a span around each call (and the
// solver's phases as child spans through its Tracer), for at least two
// inputs and until budget is used up. It runs with no server alive.
func (e *env) layerPass(ctx context.Context, rec *Recorder, chk *Checker, budget time.Duration, out map[string]Metric) error {
	traced, err := bpmax.NewSession(bpmax.WithTracer(rec))
	if err != nil {
		return err
	}
	defer traced.Close()
	plain, err := bpmax.NewSession()
	if err != nil {
		return err
	}
	defer plain.Close()
	eng := ib.NewEngine(0)
	defer eng.Close()
	pool := ib.NewPool()
	params := score.Params{Model: score.BasePair()}
	scan := e.w.Endpoint == "/v1/scan"

	var s passSums
	gen := NewGenerator(e.w, e.seed, 0)
	seen := map[string]bool{}
	start := time.Now()
	for idx := 0; s.folds < 2 || time.Since(start) < budget; idx++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, it := range gen.Next().Items {
			k := it.Seq1 + ":" + it.Seq2
			if seen[k] {
				continue
			}
			seen[k] = true
			rec.Req = idx
			if err := e.passItem(ctx, rec, traced, plain, eng, pool, params, scan, it, chk, &s); err != nil {
				return err
			}
			s.folds++
		}
	}

	self := SelfTimes(rec.Spans)
	for i, sp := range rec.Spans {
		switch sp.Name {
		case "Session.FoldWith", "Session.ScanWindowed":
			s.session = append(s.session, msOf(sp.Dur()))
			s.self = append(s.self, msOf(self[i]))
		}
		if sp.Parent < 0 {
			continue
		}
		parent := rec.Spans[sp.Parent].Name
		switch {
		case parent == "SolveContext" && sp.Name == "phase:accumulate":
			s.accumSec += sp.Dur().Seconds()
		case parent == "SolveContext" && sp.Name == "phase:finalize":
			s.finalSec += sp.Dur().Seconds()
		case parent == "SolveWindowedContext" && sp.Name == "phase:window-accumulate":
			s.waccumSec += sp.Dur().Seconds()
		}
	}

	peak := streamPeak(e.nproc)
	n := float64(s.folds)
	ms := func(name string, v float64) { out[name] = Metric{v, "ms"} }
	ms("pipeline.session_ms_p50", median(s.session))
	ms("pipeline.self_ms_p50", median(s.self))
	out["pipeline.tracer_overhead_pct"] = Metric{100 * (ratio(s.tracedSec, s.plainSec) - 1), "%"}
	ms("bpmax.fill_ms_p50", median(s.fill))
	out["bpmax.fill_gflops"] = Metric{ratio(s.flops, s.fillSec) / 1e9, "GFLOP/s"}
	out["bpmax.accumulate_share"] = Metric{ratio(s.accumSec, s.fillSec), "ratio"}
	out["bpmax.finalize_share"] = Metric{ratio(s.finalSec, s.fillSec), "ratio"}
	r0 := ratio(s.dmpFlops, s.dmpSec) / 1e9
	out["bpmax.r0_gflops"] = Metric{r0, "GFLOP/s"}
	out["bpmax.r0_roofline_pct"] = Metric{100 * ratio(r0, peak), "%"}
	out["roofline.stream_peak_gflops"] = Metric{peak, "GFLOP/s"}
	out["bpmax.speedup_vs_1worker"] = Metric{ratio(s.fill1Sec, s.fillSec), "x"}
	out["bpmax.flops_per_fold"] = Metric{ratio(s.flops, n), "count"}
	out["bpmax.table_mb_per_fold"] = Metric{ratio(s.tableBytes, n) / mib, "MB"}
	out["bpmax.allocs_per_fold"] = Metric{ratio(s.mallocs, float64(len(s.fill))), "count"}
	ms("bpmax.traceback_ms_p50", median(s.traceback))
	ms("bpmax.partition_fill_ms_p50", median(s.pfill))
	ms("bpmax.partition_sub_ms_p50", median(s.psub))
	out["bpmax.partition_slowdown"] = Metric{ratio(s.pfillSec, s.fillSec), "x"}
	ms("bpmax.window_fill_ms_p50", median(s.wfill))
	out["bpmax.window_accumulate_share"] = Metric{ratio(s.waccumSec, s.wfillSec), "ratio"}
	ms("substrate.ms_per_strand_p50", median(s.strand))
	out["substrate.mcells_per_s"] = Metric{ratio(s.cells, s.subSec) / 1e6, "Mcell/s"}
	own := s.fillSec
	if scan {
		own = s.wfillSec
	}
	out["substrate.share"] = Metric{ratio(s.subSec, s.subSec+own), "ratio"}
	out["layerpass.inputs"] = Metric{n, "count"}
	return nil
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }

// passItem runs one input through every layer the workload uses.
func (e *env) passItem(ctx context.Context, rec *Recorder, traced, plain *bpmax.Session, eng *ib.Engine, pool *ib.Pool,
	params score.Params, scan bool, it Item, chk *Checker, s *passSums) error {
	var opts []bpmax.Option
	if e.w.partition() {
		opts = append(opts, bpmax.WithAlgebra(bpmax.AlgebraPartition))
	}
	// The same call through a session with and without the span recorder
	// attached, in alternating order, gives the in-process cost of the
	// solver's Tracer hook.
	name := "Session.FoldWith"
	if scan {
		name = "Session.ScanWindowed"
	}
	call := func(sess *bpmax.Session, span string) (time.Duration, error) {
		id := rec.Begin(span)
		var err error
		if scan {
			var r *bpmax.WindowResult
			if r, err = sess.ScanWindowed(ctx, it.Seq1, it.Seq2, e.w.Window, e.w.Window); err == nil {
				r.Release()
			}
		} else {
			var r *bpmax.Result
			if r, err = sess.FoldWith(ctx, it.Seq1, it.Seq2, opts...); err == nil {
				r.Release()
			}
		}
		d := rec.End(id)
		if err != nil {
			return 0, fmt.Errorf("layer pass %s: %w", span, err)
		}
		return d, nil
	}
	for i := range 2 {
		if (i+rec.Req)%2 == 0 {
			d, err := call(traced, name)
			if err != nil {
				return err
			}
			s.tracedSec += d.Seconds()
		} else {
			d, err := call(plain, name+".untraced")
			if err != nil {
				return err
			}
			s.plainSec += d.Seconds()
		}
	}

	r1, err := rna.New(it.Seq1)
	if err != nil {
		return err
	}
	r2, err := rna.New(it.Seq2)
	if err != nil {
		return err
	}
	id := rec.Begin("NewProblemShell")
	p, err := ib.NewProblemShell(r1, r2, params)
	rec.End(id)
	if err != nil {
		return err
	}
	defer p.Release()
	id = rec.Begin("BuildS1Algo")
	p.BuildS1Algo(nussinov.AlgoAuto)
	d1 := rec.End(id)
	id = rec.Begin("BuildS2Algo")
	p.BuildS2Algo(nussinov.AlgoAuto)
	d2 := rec.End(id)
	// The per-strand median is over targets: every query is shorter than
	// every target, so a median over both strands would land on a query.
	s.strand = append(s.strand, msOf(d2))
	s.subSec += (d1 + d2).Seconds()
	s.cells += float64(p.N1*(p.N1+1)/2 + p.N2*(p.N2+1)/2)

	if scan {
		id = rec.Begin("SolveWindowedContext")
		wt, err := ib.SolveWindowedContext(ctx, p, e.w.Window, e.w.Window, ib.Config{Engine: eng, Tracer: rec})
		d := rec.End(id)
		if err != nil {
			return err
		}
		wt.Release()
		s.wfill = append(s.wfill, msOf(d))
		s.wfillSec += d.Seconds()
		return nil
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id = rec.Begin("SolveContext")
	ft, err := ib.SolveContext(ctx, p, ib.VariantHybridTiled, ib.Config{Engine: eng, Pool: pool, Tracer: rec})
	d := rec.End(id)
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	s.mallocs += float64(after.Mallocs - before.Mallocs)
	s.fill = append(s.fill, msOf(d))
	s.fillSec += d.Seconds()
	s.flops += float64(ib.BPMaxFlops(p.N1, p.N2))
	s.tableBytes += float64(ib.EstimateBytes(p.N1, p.N2, ib.MapBox))
	if served, ok := chk.first[it.key()]; ok && !e.w.partition() && served.Score != p.Score(ft) {
		chk.fail("layer pass %dx%d: SolveContext score %v, served %v", p.N1, p.N2, p.Score(ft), served.Score)
	}
	id = rec.Begin("Traceback")
	ib.Traceback(p, ft)
	s.traceback = append(s.traceback, msOf(rec.End(id)))
	ft.Release()

	id = rec.Begin("SolveContext.workers1")
	ft1, err := ib.SolveContext(ctx, p, ib.VariantHybridTiled, ib.Config{Workers: 1})
	d = rec.End(id)
	if err != nil {
		return err
	}
	ft1.Release()
	s.fill1Sec += d.Seconds()

	id = rec.Begin("SolveDMP")
	dt := ib.SolveDMP(p, ib.DMPTiled, ib.Config{Engine: eng})
	s.dmpSec += rec.End(id).Seconds()
	dt.Release()
	s.dmpFlops += float64(ib.DMPFlops(p.N1, p.N2))

	if e.w.partition() {
		id = rec.Begin("BuildPartitionSub")
		ps, err := ib.BuildPartitionSub(ctx, p, 1.0)
		d = rec.End(id)
		if err != nil {
			return err
		}
		s.psub = append(s.psub, msOf(d))
		id = rec.Begin("SolvePartitionContext")
		pft, err := ib.SolvePartitionContext(ctx, p, ps, ib.VariantHybridTiled, ib.Config{Engine: eng, Tracer: rec})
		d = rec.End(id)
		if err != nil {
			return err
		}
		pft.Release()
		s.pfill = append(s.pfill, msOf(d))
		s.pfillSec += d.Seconds()
	}
	return nil
}

// streamPeak measures the host's max-plus streaming peak (Y = max(a+X, Y)
// on L1-resident arrays, one stream per CPU), best of three.
func streamPeak(threads int) float64 {
	const chunk = 2048 // two 8 KiB arrays per thread
	iters := roofline.CalibrateIters(chunk, 100)
	best := 0.0
	for range 3 {
		best = max(best, roofline.MeasureStream(threads, chunk, iters, true).GFLOPS)
	}
	return best
}
