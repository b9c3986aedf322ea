package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/bpmax-go/bpmax"
	"github.com/bpmax-go/bpmax/internal/cliflags"
)

// TestPoolRecyclesServedResults: with -pool and no -cache every fold is
// cold, so only the handlers' Release after encoding can hand tables back.
// Repeated folds (both algebras), batches and scans must then reuse pooled
// buffers — nonzero hits in /metrics — and leave none checked out.
func TestPoolRecyclesServedResults(t *testing.T) {
	s, _ := newTestServer(t, func(f *cliflags.Serving) { f.Pool = true }, serverConfig{})
	seq1, seq2 := "GGGAAACCCAUG", "GGGUUUCCCAUGCAUGGCAU"
	for i := 0; i < 3; i++ {
		for _, req := range []struct {
			path string
			body map[string]any
		}{
			{"/v1/fold", map[string]any{"seq1": seq1, "seq2": seq2, "structure": true}},
			{"/v1/fold", map[string]any{"seq1": seq1, "seq2": seq2, "algebra": "partition"}},
			{"/v1/batch", map[string]any{"items": []map[string]string{
				{"seq1": seq1, "seq2": seq2}, {"seq1": seq2, "seq2": seq1},
			}}},
			{"/v1/scan", map[string]any{"seq1": seq1, "seq2": seq2, "w1": 4}},
		} {
			if rec := post(s, req.path, req.body); rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", req.path, rec.Code, rec.Body)
			}
		}
	}
	rec := httptest.NewRecorder()
	s.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var snap bpmax.MetricsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	ps := snap.Pool
	if ps == nil {
		t.Fatal("/metrics has no pool section")
	}
	if ps.Buffers.Hits == 0 {
		t.Errorf("no pooled buffer reuse across repeated cold folds: %+v", ps.Buffers)
	}
	if ps.Buffers.Live != 0 {
		t.Errorf("%d pooled buffers still checked out after every response was sent", ps.Buffers.Live)
	}
	if !raceEnabled && (ps.ProblemHits == 0 || ps.FTableHits == 0 || ps.WTableHits == 0 || ps.ResultHits == 0) {
		t.Errorf("shell reuse missing: %+v", ps)
	}
}

// TestCacheGCPercent pins the GC pacing against the result-cache budget:
// a budget equal to the headroom halves GOGC, the benchmark's 128MB cache
// gets 33, and very large budgets stop at the floor.
func TestCacheGCPercent(t *testing.T) {
	for _, tc := range []struct {
		budget int64
		want   int
	}{
		{1 << 20, 98},
		{64 << 20, 50},
		{128 << 20, 33},
		{1 << 30, 10},
	} {
		if got := cacheGCPercent(tc.budget); got != tc.want {
			t.Errorf("cacheGCPercent(%d) = %d, want %d", tc.budget, got, tc.want)
		}
	}
}
