// Command perfbench is the repository benchmark. It starts bpmaxd, drives
// one seeded workload over HTTP, checks every answer, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics of a traced run
// plus an in-process layer pass (--trace 1). The last line of standard
// output is one JSON object: {"correct","attempted","failed","metrics"}.
//
// Run it from the repository root through perfbench/run.sh, which builds
// bpmaxd and this program first:
//
//	bash perfbench/run.sh --workload screen --seed 1 --seconds 10 --trace 0
//
// Workloads, server flags and latency limits are pinned in
// perfbench/workloads.json; metric names and bounds in BENCHMARK.json.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// env is what one benchmark run needs from its command line.
type env struct {
	w       *Workload
	cfg     *Config
	seed    int64
	dur     time.Duration
	bpmaxd  string
	workDir string // working files (server address files, span dumps)
	nproc   int
	servers []*Server
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name (see perfbench/workloads.json)")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "measured seconds per phase")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
		bin      = flag.String("bpmaxd", ".bench_build/bin/bpmaxd", "bpmaxd binary")
		work     = flag.String("workdir", ".bench_build/perfbench", "directory for working files and span dumps")
	)
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	// A run must end within three minutes; leave room to drain servers.
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, *workload, *seed, *seconds, *traced == 1, *bin, *work)
	stop()
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(ctx context.Context, workload string, seed int64, seconds float64, traced bool, bin, work string) (res *Result, err error) {
	cfg, err := loadConfig()
	if err != nil {
		return nil, err
	}
	w, err := cfg.workload(workload)
	if err != nil {
		return nil, err
	}
	if seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("bpmaxd binary: %w", err)
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	e := &env{
		w: w, cfg: cfg, seed: seed,
		dur:    time.Duration(seconds * float64(time.Second)),
		bpmaxd: bin, workDir: work,
		nproc: runtime.NumCPU(),
	}
	defer func() {
		if serr := e.stopAll(); err == nil && serr != nil {
			err = serr
		}
	}()
	fmt.Printf("workload=%s seed=%d seconds=%g trace=%v nproc=%d\n", w.Name, seed, seconds, traced, e.nproc)
	if traced {
		res, err = e.runTraced(ctx)
	} else {
		res, err = e.runEndToEnd(ctx)
	}
	if err != nil {
		return nil, err
	}
	if err := checkNames(res, traced); err != nil {
		return nil, err
	}
	return res, nil
}

// stopAll stops every server still running.
func (e *env) stopAll() error {
	var first error
	for _, s := range e.servers {
		if err := s.Stop(); err != nil && first == nil {
			first = err
		}
	}
	e.servers = nil
	return first
}

// stop stops one server and forgets it.
func (e *env) stop(s *Server) error {
	for i, t := range e.servers {
		if t == s {
			e.servers = append(e.servers[:i], e.servers[i+1:]...)
			break
		}
	}
	return s.Stop()
}

func (e *env) serverFlags(traced bool) []string {
	flags := append([]string(nil), e.cfg.ServerFlags...)
	if !traced {
		return append(flags, "-trace-requests=false")
	}
	// Keep every traced request in the ring so encode times (which only
	// /debug/requests carries) are known for all of them.
	return append(flags, "-trace-requests=true", "-trace-ring", "65536", "-trace-slowest", "1")
}

// setup starts a server and runs the warm-up requests: it returns once
// /healthz answered 200 and the warm-up is done, with the elapsed time.
// Warm-up inputs come from a fixed stream, so every set-up does the same
// work whatever the seed.
func (e *env) setup(ctx context.Context, traced bool) (*Server, float64, error) {
	t0 := time.Now()
	s, err := StartServer(ctx, e.bpmaxd, e.workDir, e.serverFlags(traced))
	if err != nil {
		return nil, 0, err
	}
	e.servers = append(e.servers, s)
	if err := s.WaitHealthy(ctx); err != nil {
		return nil, 0, err
	}
	gen := NewGenerator(e.w, 0, 1)
	c := newLoadClient(1)
	defer c.CloseIdleConnections()
	for range e.w.WarmupRequests {
		sm := &Sample{Req: gen.Next()}
		send(ctx, c, s.Base, "warmup", sm)
		if !sm.ok() {
			return nil, 0, fmt.Errorf("warm-up request failed: status %d err %v body %.200s", sm.Status, sm.Err, sm.Body)
		}
	}
	return s, time.Since(t0).Seconds(), nil
}

// measured is one measured stretch of a workload against one server.
type measured struct {
	latency    *Phase // requests whose latency is reported
	throughput *Phase // requests whose completions give throughput
	all        []*Sample
}

func (m *measured) merge(n *measured) {
	m.latency.merge(n.latency)
	m.throughput.merge(n.throughput)
	m.all = append(m.all, n.all...)
}

// drive sends dur of gen's traffic to s: closed-loop workloads run
// Clients callers throughout; open-loop ones spend OpenShare of dur on
// Poisson arrivals and the rest on a closed-loop saturation phase.
func (e *env) drive(ctx context.Context, s *Server, tag string, gen *Generator, dur time.Duration) (*measured, error) {
	c := newLoadClient(e.nproc)
	defer c.CloseIdleConnections()
	if e.w.Loop == "closed" {
		ph := runClosed(ctx, c, s.Base, tag, gen, e.w.Clients, dur)
		return &measured{latency: ph, throughput: ph, all: ph.Samples}, ctx.Err()
	}
	openDur := time.Duration(float64(dur) * e.w.OpenShare)
	arrivals := Arrivals(e.seed, e.w.RatePerS, int(e.w.RatePerS*openDur.Seconds()*2)+100)
	open, err := runOpen(ctx, c, s.Base, tag, gen, arrivals, e.w.Clients, openDur)
	if err != nil {
		return nil, err
	}
	sat := runClosed(ctx, c, s.Base, tag, gen, e.w.Clients, dur-openDur)
	return &measured{latency: open, throughput: sat, all: append(append([]*Sample(nil), open.Samples...), sat.Samples...)}, ctx.Err()
}

// tally counts a measured stretch's outcomes and checks every answer.
type tally struct {
	sent, ok, shed, failed, wrong int
	okItems                       int
}

func (e *env) count(m *measured, chk *Checker) tally {
	var t tally
	for _, s := range m.all {
		t.sent++
		switch {
		case s.ok():
			s.Correct = chk.Check(s)
			if s.Correct {
				t.ok++
			} else {
				t.wrong++
			}
		case s.Status == 429:
			t.shed++
		default:
			t.failed++
		}
	}
	for _, s := range m.throughput.Samples {
		if s.Correct {
			t.okItems += len(s.Req.Items)
		}
	}
	return t
}

// latencyStats reduces the latency phase: median, tail, and the share of
// requests sent that were answered correctly within the workload's limit.
// Answers found wrong only by the in-process re-fold (verifyWrong) are
// charged as misses too.
func (e *env) latencyStats(m *measured, verifyWrong int) (p50 float64, tail Tail, slo float64) {
	var lat []float64
	met := 0
	for _, s := range m.latency.Samples {
		if !s.ok() {
			continue
		}
		ms := float64(s.Latency()) / 1e6
		lat = append(lat, ms)
		if s.Correct && ms <= e.w.SLOms {
			met++
		}
	}
	met = max(0, met-verifyWrong)
	return median(lat), pickTail(lat), ratio(float64(met), float64(len(m.latency.Samples)))
}

func (e *env) throughput(m *measured, t tally) float64 {
	return ratio(float64(t.okItems), m.throughput.Seconds())
}

func (e *env) itemName() string {
	switch {
	case e.w.Endpoint == "/v1/scan":
		return "scans"
	case e.w.Loop == "open":
		return "requests (saturation phase)"
	}
	return "folds"
}

// runEndToEnd is the --trace 0 run: three set-ups (median reported), one
// measured phase with tracing off, then the answer checks.
func (e *env) runEndToEnd(ctx context.Context) (*Result, error) {
	var setups []float64
	var srv *Server
	for i := 0; i < 3; i++ {
		s, sec, err := e.setup(ctx, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, sec)
		if i < 2 {
			if err := e.stop(s); err != nil {
				return nil, err
			}
		} else {
			srv = s
		}
	}
	m, err := e.drive(ctx, srv, "m", NewGenerator(e.w, e.seed, 0), e.dur)
	if err != nil {
		return nil, err
	}
	rss, err := srv.PeakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := e.stop(srv); err != nil {
		return nil, err
	}
	chk := NewChecker(e.w)
	t := e.count(m, chk)
	verified := chk.Verify(e.seed)
	verifyWrong := chk.Wrong - t.wrong
	t.wrong = chk.Wrong
	p50, tail, slo := e.latencyStats(m, verifyWrong)
	thr := e.throughput(m, t)

	setupS := median(setups)
	fmt.Printf("setup_s            %10.4f s      median of %d set-ups %v\n", setupS, len(setups), fmtList(setups))
	fmt.Printf("throughput_per_s   %10.4f 1/s    %s: %d OK in %.2f s\n", thr, e.itemName(), t.okItems, m.throughput.Seconds())
	fmt.Printf("latency_p50_ms     %10.4f ms     over %d OK requests; p10..p90 %s\n", p50, tail.N, fmtList(deciles(m.latency)))
	fmt.Printf("latency_p99_ms     %10.4f ms     p%g over %d OK requests (highest percentile with >=10 samples beyond)\n", tail.Value, tail.Pct, tail.N)
	fmt.Printf("slo_attainment     %10.4f        within %g ms, of %d sent\n", slo, e.w.SLOms, len(m.latency.Samples))
	if e.w.Loop == "open" {
		lag := lagsMs(m.latency)
		fmt.Printf("generator lag      p50 %.3f ms, p99 %.3f ms over %d requests (included in their latency)\n", median(lag), pickTail(lag).Value, len(lag))
	}
	fmt.Printf("error_rate         %10.4f        (%d failed + %d shed + %d wrong) / %d attempted\n",
		ratio(float64(t.failed+t.shed+t.wrong), float64(t.sent)), t.failed, t.shed, t.wrong, t.sent)
	fmt.Printf("server_rss_mb      %10.4f MB     bpmaxd VmHWM\n", rss)
	fmt.Printf("verified %d sampled inputs in process against the base schedule\n", verified)
	for _, p := range chk.Errors {
		fmt.Println("WRONG:", p)
	}
	return &Result{
		Correct:   chk.Wrong == 0,
		Attempted: t.sent,
		Failed:    t.failed + t.shed + t.wrong,
		Metrics:   endToEndMetrics(setupS, thr, p50, tail.Value, slo, rss),
	}, nil
}

// endToEndMetrics names the --trace 0 metrics.
func endToEndMetrics(setupS, thr, p50, tail, slo, rss float64) map[string]Metric {
	return map[string]Metric{
		"setup_s":          {setupS, "s"},
		"throughput_per_s": {thr, "1/s"},
		"latency_p50_ms":   {p50, "ms"},
		"latency_p99_ms":   {tail, "ms"},
		"slo_attainment":   {slo, "ratio"},
		"server_rss_mb":    {rss, "MB"},
	}
}

func fmtList(xs []float64) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += strconv.FormatFloat(x, 'f', 3, 64)
	}
	return s + "]"
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(path string) (endToEnd, perLayer map[string]string, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer, nil
}

// checkNames fails the run when the printed metrics and units differ from
// BENCHMARK.json's list for this mode.
func checkNames(res *Result, traced bool) error {
	e2e, layer, err := benchmarkNames("BENCHMARK.json")
	if err != nil {
		return err
	}
	want := e2e
	if traced {
		want = layer
	}
	return sameNames(res.Metrics, want)
}

func sameNames(got map[string]Metric, want map[string]string) error {
	for name, m := range got {
		unit, ok := want[name]
		if !ok {
			return fmt.Errorf("metric %q is not declared in BENCHMARK.json", name)
		}
		if unit != m.Unit {
			return fmt.Errorf("metric %q has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			return fmt.Errorf("BENCHMARK.json metric %q was not reported", name)
		}
	}
	return nil
}
