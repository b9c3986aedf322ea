package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
)

// Item is one (query, target) pair the benchmark asks the server about.
type Item struct {
	Seq1, Seq2 string
	Structure  bool
}

// key identifies an item's answer: the same key must always get the same
// answer, whether it is computed or served from the result cache.
func (it Item) key() string {
	s := "f"
	if it.Structure {
		s = "s"
	}
	return s + ":" + it.Seq1 + ":" + it.Seq2
}

// Request is one generated HTTP request with the items it carries.
type Request struct {
	Index  int
	Path   string
	Body   []byte
	Items  []Item
	Repeat bool // serve-mixed: an exact repeat of an earlier pair
}

// strata draws values whose empirical distribution is the same in every
// cycle of k draws: each cycle visits the k equal-probability strata of
// [0,1) once, in a seeded order, and jitters within the stratum. Sequences
// change with the seed; the mix of lengths and kinds a run sees does not,
// which keeps run-to-run spread down without narrowing the ranges.
type strata struct {
	rng  *rand.Rand
	k    int
	perm []int
	pos  int
}

func newStrata(rng *rand.Rand, k int) *strata {
	return &strata{rng: rng, k: k, pos: k}
}

func (s *strata) next() float64 {
	if s.pos == s.k {
		s.perm = s.rng.Perm(s.k)
		s.pos = 0
	}
	j := s.perm[s.pos]
	s.pos++
	return (float64(j) + s.rng.Float64()) / float64(s.k)
}

// uniformLen maps u in [0,1) onto the inclusive integer range r.
func uniformLen(u float64, r [2]int) int {
	n := r[0] + int(u*float64(r[1]-r[0]+1))
	return min(n, r[1])
}

// targetLen maps u onto the target-length distribution: uniform over
// TargetNt, with a bounded-Pareto tail (alpha 1.2) from TargetNt[1] up to
// TailNt on the top TailShare of u.
func (w *Workload) targetLen(u float64) int {
	if w.TailNt <= w.TargetNt[1] || u < 1-w.TailShare {
		return uniformLen(u/(1-w.TailShare), w.TargetNt)
	}
	const alpha = 1.2
	lo, hi := float64(w.TargetNt[1]), float64(w.TailNt)
	v := (u - (1 - w.TailShare)) / w.TailShare
	x := math.Pow(math.Pow(lo, -alpha)-v*(math.Pow(lo, -alpha)-math.Pow(hi, -alpha)), -1/alpha)
	return min(max(int(x), w.TargetNt[1]+1), w.TailNt)
}

// Generator produces a workload's requests in a fixed order from a seed.
// Requests depend only on (workload, seed, stream) and their index, never
// on timing, so a run's inputs are reproducible however fast the server is.
type Generator struct {
	w       *Workload
	rng     *rand.Rand
	qlen    *strata
	tlen    *strata
	kind    *strata
	shape   *strata
	pair    *strata
	seen    map[string]bool
	history []Item           // distinct serve-mixed pairs, for repeats
	queries map[int][]string // serve-mixed queries by length, for shared-query pairs
	n       int
}

// NewGenerator seeds a generator. Stream 0 is the measured traffic; other
// streams (warm-up) draw disjoint sequences from the same distributions.
func NewGenerator(w *Workload, seed, stream int64) *Generator {
	rng := rand.New(rand.NewSource(seed*1_000_003 + stream))
	// A screen draws one target per stratum of a screen-sized cycle, so
	// every screen carries the same spread of target lengths. Scans and
	// new serve-mixed pairs take whole shapes from a fixed cycle instead
	// (pairShape); scans are few per run (about one a second), so theirs
	// is short enough to repeat within a run.
	pk := 20
	if w.Window > 0 {
		pk = 8
	}
	return &Generator{
		w:       w,
		rng:     rng,
		qlen:    newStrata(rng, 5),
		tlen:    newStrata(rng, max(w.ItemsPerRequest, 1)),
		kind:    newStrata(rng, 20),
		shape:   newStrata(rng, 10),
		pair:    newStrata(rng, pk),
		seen:    make(map[string]bool),
		queries: make(map[int][]string),
	}
}

func (g *Generator) strand(n int) string {
	for {
		b := make([]byte, n)
		for i := range b {
			b[i] = "ACGU"[g.rng.Intn(4)]
		}
		if s := string(b); !g.seen[s] {
			g.seen[s] = true
			return s
		}
	}
}

func (g *Generator) query() string  { return g.strand(uniformLen(g.qlen.next(), g.w.QueryNt)) }
func (g *Generator) target() string { return g.strand(g.w.targetLen(g.tlen.next())) }

// Next returns the next request of the stream.
func (g *Generator) Next() Request {
	i := g.n
	g.n++
	switch g.w.Endpoint {
	case "/v1/batch":
		return g.batch(i)
	case "/v1/scan":
		return g.scan(i)
	default:
		return g.fold(i)
	}
}

func (g *Generator) batch(i int) Request {
	q := g.query()
	type item struct {
		Name string `json:"name"`
		Seq1 string `json:"seq1"`
		Seq2 string `json:"seq2"`
	}
	body := struct {
		Items   []item `json:"items"`
		Algebra string `json:"algebra,omitempty"`
	}{Algebra: g.w.algebraField()}
	r := Request{Index: i, Path: g.w.Endpoint}
	for j := 0; j < g.w.ItemsPerRequest; j++ {
		it := Item{Seq1: q, Seq2: g.target()}
		r.Items = append(r.Items, it)
		body.Items = append(body.Items, item{Name: fmt.Sprintf("t%d", j), Seq1: it.Seq1, Seq2: it.Seq2})
	}
	r.Body = mustJSON(body)
	return r
}

func (g *Generator) scan(i int) Request {
	q, t := g.pairShape()
	it := Item{Seq1: g.strand(q), Seq2: g.strand(t)}
	return Request{
		Index: i, Path: g.w.Endpoint, Items: []Item{it},
		Body: mustJSON(map[string]any{"seq1": it.Seq1, "seq2": it.Seq2, "w1": g.w.Window, "w2": g.w.Window}),
	}
}

// fold draws one serve-mixed request. Each cycle of 20 requests holds
// repeats, shared-query pairs and cold pairs in the configured shares;
// repeats pick among the last 64 distinct pairs so duplicates arrive close
// together, and a tenth of new pairs ask for a traceback.
func (g *Generator) fold(i int) Request {
	u := g.kind.next()
	var it Item
	repeat := false
	switch {
	case u < g.w.RepeatShare && len(g.history) > 0:
		recent := g.history[max(0, len(g.history)-64):]
		it = recent[g.rng.Intn(len(recent))]
		repeat = true
	case u < g.w.RepeatShare+g.w.SharedQueryShare && len(g.history) > 0:
		it = g.newPair(true)
	default:
		it = g.newPair(false)
	}
	if !repeat {
		it.Structure = g.shape.next() < g.w.StructureShare
		g.history = append(g.history, it)
	}
	body := map[string]any{"seq1": it.Seq1, "seq2": it.Seq2}
	if it.Structure {
		body["structure"] = true
	}
	if a := g.w.algebraField(); a != "" {
		body["algebra"] = a
	}
	return Request{Index: i, Path: g.w.Endpoint, Items: []Item{it}, Repeat: repeat, Body: mustJSON(body)}
}

// pairShape returns the lengths of the next new pair. Fold and scan cost
// grow with powers of both lengths, so the latency tail depends on which
// query lengths meet which target lengths. Each cycle therefore visits the
// midpoints of all k target strata once, in seeded order, each paired with
// a fixed query stratum: every cycle has the same shapes, and the seed
// changes only their order and the sequences.
func (g *Generator) pairShape() (q, t int) {
	k := g.pair.k
	j := int(g.pair.next() * float64(k))
	qu := (float64((j*7)%k) + 0.5) / float64(k) // 7 is coprime with both cycle lengths: a fixed permutation
	return uniformLen(qu, g.w.QueryNt), g.w.targetLen((float64(j) + 0.5) / float64(k))
}

// newPair draws a new serve-mixed pair. With shareQuery it reuses an
// earlier query of the length the shape cycle asks for, so its substrate
// can come from the cache while the pair costs the same as a cold one.
func (g *Generator) newPair(shareQuery bool) Item {
	q, t := g.pairShape()
	if prev := g.queries[q]; shareQuery && len(prev) > 0 {
		return Item{Seq1: prev[g.rng.Intn(len(prev))], Seq2: g.strand(t)}
	}
	it := Item{Seq1: g.strand(q), Seq2: g.strand(t)}
	g.queries[q] = append(g.queries[q], it.Seq1)
	return it
}

// Arrivals returns the first n Poisson arrival offsets at rate per second.
func Arrivals(seed int64, rate float64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed*1_000_003 + 7919))
	out := make([]float64, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = t
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps of strings and ints reach here
	}
	return b
}
