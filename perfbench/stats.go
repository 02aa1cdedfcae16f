package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 <= p <= 100) of xs, linearly
// interpolated between closest ranks. xs is not modified; an empty
// sample yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// tailLadder lists the candidate tail percentiles in per mille.
var tailLadder = []int{500, 900, 990, 999}

// tailPercentile applies the reporting rule for a timing's tail: the
// highest percentile of the ladder p50, p90, p99, p99.9 that leaves at
// least ten samples beyond it in a sample of n. ok is false when even
// the median has fewer than ten samples beyond it (n < 20). Per-mille
// integers keep the rule exact: 100 samples leave exactly ten beyond p90.
func tailPercentile(n int) (p float64, ok bool) {
	for _, pm := range tailLadder {
		if n*(1000-pm)/1000 >= 10 {
			p, ok = float64(pm)/10, true
		}
	}
	return p, ok
}
