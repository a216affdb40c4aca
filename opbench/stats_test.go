package main

import (
	"math"
	"testing"
)

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {90, 4.6}, {100, 5}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of no samples should be 0")
	}
}

// TestTailPercentileRule pins the quoting rule: the highest percentile
// with at least ten samples ranked above it.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok {
			if b := samplesBeyond(c.n, int(got*10)); b < minBeyond {
				t.Errorf("n=%d: p%v has only %d samples beyond", c.n, got, b)
			}
		}
	}
}
