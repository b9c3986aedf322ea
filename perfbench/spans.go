package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"

	"github.com/bpmax-go/bpmax"
)

// Span is one timed call into a layer, recorded by the benchmark around a
// module's public function (or, for solver phases, from the Tracer
// callbacks the solver already makes).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Req    int    `json:"req"`    // index of the input the span worked on
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // offsets from the recorder's start
	End    int64  `json:"end_ns"`
}

func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Recorder keeps spans in memory; Write dumps them when the pass ends.
// It also implements bpmax.Tracer, turning each solver phase into a child
// of the innermost open span. One goroutine drives it: the solver calls
// its Tracer from the coordinating goroutine only.
type Recorder struct {
	t0    time.Time
	Spans []Span
	open  []int // stack of open span IDs
	Req   int
}

var _ bpmax.Tracer = (*Recorder)(nil)

func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

func (r *Recorder) now() int64 { return int64(time.Since(r.t0)) }

func (r *Recorder) parent() int {
	if len(r.open) == 0 {
		return -1
	}
	return r.open[len(r.open)-1]
}

// Begin opens a span under the innermost open one.
func (r *Recorder) Begin(name string) int {
	id := len(r.Spans)
	r.Spans = append(r.Spans, Span{ID: id, Parent: r.parent(), Req: r.Req, Name: name, Start: r.now()})
	r.open = append(r.open, id)
	return id
}

// End closes the innermost open span, which must be id.
func (r *Recorder) End(id int) time.Duration {
	r.Spans[id].End = r.now()
	r.open = r.open[:len(r.open)-1]
	return r.Spans[id].Dur()
}

// BeginPhase is a no-op: EndPhase carries the phase's duration.
func (r *Recorder) BeginPhase(bpmax.Phase) {}

// EndPhase records a finished solver phase as a child span.
func (r *Recorder) EndPhase(p bpmax.Phase, d time.Duration) {
	end := r.now()
	r.Spans = append(r.Spans, Span{ID: len(r.Spans), Parent: r.parent(), Req: r.Req, Name: "phase:" + p.String(), Start: end - int64(d), End: end})
}

// SelfTimes returns each span's self time: its duration minus the part of
// its interval covered by its direct children (overlapping children count
// once).
func SelfTimes(spans []Span) []time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.Dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of kids' intervals clipped to s.
func covered(s Span, kids []Span) time.Duration {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		switch {
		case i == 0:
			curA, curB = x[0], x[1]
		case x[0] > curB:
			total += curB - curA
			curA, curB = x[0], x[1]
		case x[1] > curB:
			curB = x[1]
		}
	}
	if len(iv) > 0 {
		total += curB - curA
	}
	return time.Duration(total)
}

// Write dumps the spans as JSON.
func (r *Recorder) Write(path string) error {
	b, err := json.Marshal(r.Spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
