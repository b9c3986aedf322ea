package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/bpmax-go/bpmax"
)

// answer is the part of a served answer that must be reproducible.
type answer struct {
	Score              float32
	LogZ               float64
	KT                 float64
	HasLogZ            bool
	Bracket1, Bracket2 string
	Best               float32
	I1, J1, I2, J2     int
}

// Checker validates every served answer: shape and range checks on each
// response, and equality between every answer for the same item (a result
// cache hit must repeat the first answer exactly).
type Checker struct {
	w      *Workload
	first  map[string]answer
	items  map[string]Item
	Wrong  int
	Errors []string // the first few problems, for the report
}

func NewChecker(w *Workload) *Checker {
	return &Checker{w: w, first: make(map[string]answer), items: make(map[string]Item)}
}

func (c *Checker) fail(format string, args ...any) bool {
	c.Wrong++
	if len(c.Errors) < 5 {
		c.Errors = append(c.Errors, fmt.Sprintf(format, args...))
	}
	return false
}

// Check validates one 200 response and reports whether it is right.
func (c *Checker) Check(s *Sample) bool {
	answers, err := c.decode(s)
	if err != nil {
		return c.fail("request %d: %v", s.Req.Index, err)
	}
	for i, it := range s.Req.Items {
		k := it.key()
		if prev, ok := c.first[k]; ok {
			if !sameAnswer(prev, answers[i]) {
				return c.fail("request %d item %d: answer %+v differs from first answer %+v", s.Req.Index, i, answers[i], prev)
			}
			continue
		}
		c.first[k] = answers[i]
		c.items[k] = it
	}
	return true
}

func sameAnswer(a, b answer) bool {
	return math.Float32bits(a.Score) == math.Float32bits(b.Score) &&
		math.Float64bits(a.LogZ) == math.Float64bits(b.LogZ) &&
		a.HasLogZ == b.HasLogZ && a.KT == b.KT &&
		a.Bracket1 == b.Bracket1 && a.Bracket2 == b.Bracket2 &&
		math.Float32bits(a.Best) == math.Float32bits(b.Best) &&
		a.I1 == b.I1 && a.J1 == b.J1 && a.I2 == b.I2 && a.J2 == b.J2
}

func (c *Checker) decode(s *Sample) ([]answer, error) {
	switch s.Req.Path {
	case "/v1/batch":
		var r struct {
			Results []struct {
				Name  string   `json:"name"`
				Score float32  `json:"score"`
				LogZ  *float64 `json:"logz"`
				Error string   `json:"error"`
			} `json:"results"`
			Failed int `json:"failed"`
		}
		if err := json.Unmarshal(s.Body, &r); err != nil {
			return nil, err
		}
		if len(r.Results) != len(s.Req.Items) || r.Failed != 0 {
			return nil, fmt.Errorf("batch returned %d results, %d failed, for %d items", len(r.Results), r.Failed, len(s.Req.Items))
		}
		out := make([]answer, len(r.Results))
		for i, it := range r.Results {
			if it.Error != "" || it.Name != fmt.Sprintf("t%d", i) {
				return nil, fmt.Errorf("batch item %d: name %q error %q", i, it.Name, it.Error)
			}
			if (it.LogZ != nil) != c.w.partition() {
				return nil, fmt.Errorf("batch item %d: logz present=%v for algebra %q", i, it.LogZ != nil, c.w.Algebra)
			}
			out[i] = answer{Score: it.Score}
			if it.LogZ != nil {
				// Batch answers do not echo kT; the server default is 1.
				out[i].LogZ, out[i].HasLogZ, out[i].KT = *it.LogZ, true, 1
			}
		}
		return out, nil
	case "/v1/scan":
		var r struct {
			Best           float32 `json:"best"`
			I1, J1, I2, J2 int
		}
		if err := json.Unmarshal(s.Body, &r); err != nil {
			return nil, err
		}
		it, w := s.Req.Items[0], c.w.Window
		if !inWindow(r.I1, r.J1, len(it.Seq1), w) || !inWindow(r.I2, r.J2, len(it.Seq2), w) {
			return nil, fmt.Errorf("scan best cell (%d,%d,%d,%d) outside the %d-window of %dx%d", r.I1, r.J1, r.I2, r.J2, w, len(it.Seq1), len(it.Seq2))
		}
		return []answer{{Best: r.Best, I1: r.I1, J1: r.J1, I2: r.I2, J2: r.J2}}, nil
	default:
		var r struct {
			Score     float32  `json:"score"`
			N1        int      `json:"n1"`
			N2        int      `json:"n2"`
			LogZ      *float64 `json:"logz"`
			KT        float64  `json:"kt"`
			Structure *struct {
				Bracket1 string `json:"bracket1"`
				Bracket2 string `json:"bracket2"`
			} `json:"structure"`
		}
		if err := json.Unmarshal(s.Body, &r); err != nil {
			return nil, err
		}
		it := s.Req.Items[0]
		if r.N1 != len(it.Seq1) || r.N2 != len(it.Seq2) {
			return nil, fmt.Errorf("fold reports %dx%d for a %dx%d pair", r.N1, r.N2, len(it.Seq1), len(it.Seq2))
		}
		a := answer{Score: r.Score, KT: r.KT}
		if r.LogZ != nil {
			a.LogZ, a.HasLogZ = *r.LogZ, true
		}
		if it.Structure {
			if r.Structure == nil || len(r.Structure.Bracket1) != r.N1 || len(r.Structure.Bracket2) != r.N2 {
				return nil, fmt.Errorf("structure missing or mis-sized")
			}
			a.Bracket1, a.Bracket2 = r.Structure.Bracket1, r.Structure.Bracket2
		}
		return []answer{a}, nil
	}
}

func inWindow(i, j, n, w int) bool { return 0 <= i && i <= j && j < n && j-i < w }

// Verify re-computes a seeded sample of the distinct served items in
// process with the paper's original base schedule on one worker (scans: the
// windowed fill, which has one schedule, on one worker), with no cache,
// pool or engine, and compares: max-plus scores, structures and
// scan optima bit for bit; partition log Z to 1e-9 relative and never below
// the max-plus score / kT. It checks consistency between the served
// configuration and the base schedule, not ground truth.
func (c *Checker) Verify(seed int64) (checked int) {
	keys := make([]string, 0, len(c.first))
	for k := range c.first {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rand.New(rand.NewSource(seed)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys[:min(c.w.VerifySample, len(keys))] {
		c.verifyOne(c.items[k], c.first[k])
		checked++
	}
	return checked
}

func (c *Checker) verifyOne(it Item, got answer) {
	base := []bpmax.Option{bpmax.WithVariant(bpmax.Base), bpmax.WithWorkers(1)}
	if c.w.Endpoint == "/v1/scan" {
		r, err := bpmax.ScanWindowed(it.Seq1, it.Seq2, c.w.Window, c.w.Window, bpmax.WithWorkers(1))
		if err != nil {
			c.fail("verify scan: %v", err)
			return
		}
		want := answer{Best: r.Best, I1: r.I1, J1: r.J1, I2: r.I2, J2: r.J2}
		if !sameAnswer(want, got) {
			c.fail("verify scan %dx%d: served %+v, base %+v", len(it.Seq1), len(it.Seq2), got, want)
		}
		return
	}
	mp, err := bpmax.Fold(it.Seq1, it.Seq2, base...)
	if err != nil {
		c.fail("verify fold: %v", err)
		return
	}
	if c.w.partition() {
		pf, err := bpmax.Fold(it.Seq1, it.Seq2, append(base, bpmax.WithAlgebra(bpmax.AlgebraPartition), bpmax.WithKT(got.KT))...)
		if err != nil {
			c.fail("verify partition fold: %v", err)
			return
		}
		if rel := math.Abs(got.LogZ-pf.LogZ) / math.Max(math.Abs(pf.LogZ), 1e-300); rel > 1e-9 {
			c.fail("verify partition %dx%d: served logz %v, base %v (rel %.3g)", len(it.Seq1), len(it.Seq2), got.LogZ, pf.LogZ, rel)
		}
		if lo := float64(mp.Score) / got.KT; got.LogZ < lo-1e-12*math.Abs(lo) {
			c.fail("verify partition %dx%d: logz %v below score/kT %v", len(it.Seq1), len(it.Seq2), got.LogZ, lo)
		}
		return
	}
	want := answer{Score: mp.Score}
	if it.Structure {
		st := mp.Structure()
		want.Bracket1, want.Bracket2 = st.Bracket1, st.Bracket2
	}
	if !sameAnswer(want, got) {
		c.fail("verify fold %dx%d: served %+v, base %+v", len(it.Seq1), len(it.Seq2), got, want)
	}
}
