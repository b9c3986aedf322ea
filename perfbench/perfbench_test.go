package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"github.com/bpmax-go/bpmax"
	"github.com/bpmax-go/bpmax/internal/trace"
)

func testConfig(t *testing.T) *Config {
	t.Helper()
	c, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func firstRequests(w *Workload, seed, stream int64, n int) [][]byte {
	g := NewGenerator(w, seed, stream)
	out := make([][]byte, n)
	for i := range out {
		out[i] = g.Next().Body
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range testConfig(t).Workloads {
		a, b := firstRequests(w, 7, 0, 200), firstRequests(w, 7, 0, 200)
		c := firstRequests(w, 8, 0, 200)
		differ := false
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: request %d differs between two generators with the same seed", w.Name, i)
			}
			differ = differ || !bytes.Equal(a[i], c[i])
		}
		if !differ {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", w.Name)
		}
		if w.Loop == "open" {
			x, y, z := Arrivals(7, w.RatePerS, 100), Arrivals(7, w.RatePerS, 100), Arrivals(8, w.RatePerS, 100)
			for i := range x {
				if x[i] != y[i] {
					t.Fatalf("%s: arrival %d differs for the same seed", w.Name, i)
				}
			}
			if x[99] == z[99] {
				t.Errorf("%s: seeds 7 and 8 gave identical arrivals", w.Name)
			}
		}
	}
}

// TestWorkloadShapes checks the generated inputs stay inside each
// workload's declared shapes and mix.
func TestWorkloadShapes(t *testing.T) {
	for _, w := range testConfig(t).Workloads {
		g := NewGenerator(w, 3, 0)
		repeats, structures, n := 0, 0, 400
		maxTarget := w.TargetNt[1]
		if w.TailNt > 0 {
			maxTarget = w.TailNt
		}
		for i := 0; i < n; i++ {
			r := g.Next()
			if r.Repeat {
				repeats++
			}
			for _, it := range r.Items {
				if l := len(it.Seq1); l < w.QueryNt[0] || l > w.QueryNt[1] {
					t.Fatalf("%s: query length %d outside %v", w.Name, l, w.QueryNt)
				}
				if l := len(it.Seq2); l < w.TargetNt[0] || l > maxTarget {
					t.Fatalf("%s: target length %d outside [%d,%d]", w.Name, l, w.TargetNt[0], maxTarget)
				}
				if it.Structure && !r.Repeat {
					structures++
				}
			}
			if w.ItemsPerRequest > 0 && len(r.Items) != w.ItemsPerRequest {
				t.Fatalf("%s: %d items, want %d", w.Name, len(r.Items), w.ItemsPerRequest)
			}
		}
		if got := float64(repeats) / float64(n); math.Abs(got-w.RepeatShare) > 0.02 {
			t.Errorf("%s: repeat share %.3f, want %.2f", w.Name, got, w.RepeatShare)
		}
		if w.StructureShare > 0 && structures == 0 {
			t.Errorf("%s: no request asked for a structure", w.Name)
		}
	}
}

func TestPickTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		pct  float64
		want float64
	}{
		{1000, 99, 990},
		{999, 98, 980}, // p99 would leave only 9 beyond
		{500, 98, 490},
		{200, 95, 190},
		{40, 75, 30},
		{20, 50, 10},
		{15, 50, 8}, // nothing qualifies: median, flagged by Pct 50
	} {
		got := pickTail(seq(tc.n))
		if got.Pct != tc.pct || got.Value != tc.want || got.N != tc.n {
			t.Errorf("n=%d: got %+v, want p%g = %g over %d", tc.n, got, tc.pct, tc.want, tc.n)
		}
	}
	for n := 20; n < 3000; n += 37 {
		got := pickTail(seq(n))
		beyond := func(p float64) int { return n - int(math.Ceil(p*float64(n)/100)) }
		if beyond(got.Pct) < 10 {
			t.Fatalf("n=%d: p%g has only %d samples beyond", n, got.Pct, beyond(got.Pct))
		}
		for _, p := range tailPercentiles {
			if p > got.Pct && beyond(p) >= 10 {
				t.Fatalf("n=%d: picked p%g but p%g also has >=10 beyond", n, got.Pct, p)
			}
		}
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50},  // overlaps span 1: counted once
		{ID: 3, Parent: 0, Start: 90, End: 120}, // clipped to the parent
		{ID: 4, Parent: 1, Start: 12, End: 18},  // grandchild: not the root's child
	}
	got := SelfTimes(spans)
	want := []time.Duration{100 - 40 - 10, 20 - 6, 30, 30, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %v, want %v", i, got[i], want[i])
		}
	}
}

func TestRecorderNestsPhases(t *testing.T) {
	r := NewRecorder()
	root := r.Begin("SolveContext")
	r.EndPhase(bpmax.PhaseAccum, time.Microsecond)
	child := r.Begin("inner")
	r.End(child)
	r.End(root)
	if len(r.Spans) != 3 || r.Spans[1].Parent != root || r.Spans[1].Name != "phase:accumulate" || r.Spans[2].Parent != root {
		t.Fatalf("spans %+v", r.Spans)
	}
}

// TestMetricNamesMatchBenchmark checks that both modes print exactly the
// metrics BENCHMARK.json declares, with the same units, and that
// workloads.json agrees with it.
func TestMetricNamesMatchBenchmark(t *testing.T) {
	e2e, layer, err := benchmarkNames("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := sameNames(endToEndMetrics(1, 1, 1, 1, 1, 1), e2e); err != nil {
		t.Error("end to end:", err)
	}

	cfg := testConfig(t)
	for _, w := range cfg.Workloads {
		e := &env{w: w, cfg: cfg, seed: 1, nproc: 2}
		out := map[string]Metric{}
		empty := &measured{latency: &Phase{}, throughput: &Phase{}}
		e.serverLayers(out, empty, empty, tally{}, tally{}, trace.RingSnapshot{}, bpmax.MetricsSnapshot{}, bpmax.MetricsSnapshot{})
		if !testing.Short() && w.Name == "partition-screen" {
			// The layer pass on the cheapest workload, at its minimum of
			// two inputs, covers every layer-pass metric name.
			if err := e.layerPass(context.Background(), NewRecorder(), NewChecker(w), 0, out); err != nil {
				t.Fatal(err)
			}
			if err := sameNames(out, layer); err != nil {
				t.Error("per layer:", err)
			}
		}
		for _, p := range w.Predictions {
			for _, m := range p.Metrics {
				if _, ok := layer[m]; !ok {
					t.Errorf("%s: prediction names unknown per-layer metric %q", w.Name, m)
				}
			}
			for _, m := range p.Moves {
				if _, ok := e2e[m]; !ok {
					t.Errorf("%s: prediction names unknown end-to-end metric %q", w.Name, m)
				}
			}
		}
	}

	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(cfg.Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, workloads.json %d", len(doc.Workloads), len(cfg.Workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != cfg.Workloads[i].Name || w.Why != cfg.Workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, workloads.json %q/%q", i, w.Name, w.Why, cfg.Workloads[i].Name, cfg.Workloads[i].Why)
		}
	}
}

func TestCheckerFlagsMismatchedRepeat(t *testing.T) {
	w := &Workload{Endpoint: "/v1/fold", Algebra: "maxplus", VerifySample: 1}
	it := Item{Seq1: "GGGAAA", Seq2: "UUUCCC"}
	mk := func(score string) *Sample {
		return &Sample{Status: 200, Req: Request{Path: "/v1/fold", Items: []Item{it}},
			Body: []byte(`{"score":` + score + `,"n1":6,"n2":6}`)}
	}
	c := NewChecker(w)
	if !c.Check(mk("1000")) || !c.Check(mk("1000")) {
		t.Fatal("identical answers flagged wrong")
	}
	if c.Check(mk("999")) || c.Wrong != 1 {
		t.Fatalf("a repeat with a different score passed (wrong=%d)", c.Wrong)
	}
	if c.Verify(1) != 1 || c.Wrong != 2 {
		t.Fatalf("in-process re-fold did not flag the served score 1000 (wrong=%d)", c.Wrong)
	}
}
