package main

import (
	"math"

	"m3/internal/stats"
)

// median is stats.Median, except that no samples read 0: a layer a workload
// does not exercise reports zeros, and JSON cannot carry NaN.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Median(xs)
}

// tailPercentiles are the tail percentiles a report may quote, ascending.
var tailPercentiles = []float64{90, 99, 99.9}

// supportedTail returns the highest of tailPercentiles that has at least ten
// of the n samples beyond it, or 0 when not even p90 does (n < 100): a
// percentile with fewer samples above it is one or two outliers, not a
// property of the system.
func supportedTail(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		// Integer arithmetic: n*(100-p)/100 >= 10, with p in tenths.
		if n*(1000-int(math.Round(p*10))) >= 10*1000 {
			best = p
		}
	}
	return best
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// relDiff is |a-b| as a share of their mean; 0 when both are 0.
func relDiff(a, b float64) float64 {
	m := (math.Abs(a) + math.Abs(b)) / 2
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}
