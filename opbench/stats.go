package main

import (
	"math"
	"sort"
)

// percentile is the p-th percentile (0..100) of xs, interpolating linearly
// between the two nearest ranks; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPermille lists the percentiles a report may quote, in permille,
// highest first.
var tailPermille = []int{999, 990, 950, 900, 750, 500}

// minBeyond is how many samples must rank above a quoted percentile.
const minBeyond = 10

// samplesBeyond counts the samples of n that rank above the percentile
// given in permille.
func samplesBeyond(n, permille int) int {
	return n - (permille*n+999)/1000
}

// tailPercentile returns the highest quotable percentile (in percent) with
// at least minBeyond of n samples ranked above it; ok is false when not
// even the median has that many.
func tailPercentile(n int) (p float64, ok bool) {
	for _, pm := range tailPermille {
		if samplesBeyond(n, pm) >= minBeyond {
			return float64(pm) / 10, true
		}
	}
	return 0, false
}
