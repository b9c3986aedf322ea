package main

import (
	"math"
	"sort"
)

// quantile is the nearest-rank q-quantile (0 < q <= 1) of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// Tail is a latency tail statistic: the value at Pct over N samples.
type Tail struct {
	Value float64
	Pct   float64
	N     int
}

// tailPercentiles are the candidates pickTail tries, highest first. The
// top is p99 because that is what the end-to-end metric is named for.
var tailPercentiles = []float64{99, 98, 95, 90, 75, 50}

// pickTail returns the highest candidate percentile that has at least ten
// samples beyond it, with the sample count, so a tail figure never rests
// on fewer than ten observations. With fewer than 20 samples no candidate
// qualifies and the median is returned (Pct 50) — the report says so.
func pickTail(xs []float64) Tail {
	s := sortedCopy(xs)
	for _, p := range tailPercentiles {
		i := int(math.Ceil(p*float64(len(s))/100)) - 1
		if i >= 0 && len(s)-(i+1) >= 10 {
			return Tail{Value: s[i], Pct: p, N: len(s)}
		}
	}
	return Tail{Value: quantile(s, 0.5), Pct: 50, N: len(s)}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// deciles returns the p10, p20, ..., p90 latencies (ms) of a phase's OK
// requests, for the report.
func deciles(p *Phase) []float64 {
	s := sortedCopy(okLatencies(p))
	out := make([]float64, 9)
	for i := range out {
		out[i] = quantile(s, float64(i+1)/10)
	}
	return out
}
