package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: fewer leave the value to one or two outliers.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs and the
// number of samples ranked above it. It returns an error naming that count
// when fewer than minBeyond samples lie beyond the percentile.
func percentile(xs []float64, q float64) (float64, int, error) {
	if len(xs) == 0 {
		return 0, 0, fmt.Errorf("p%g: no samples", q*100)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// The epsilon keeps q*n = 90.00000000000001 (100 samples, q = 0.9) at
	// rank 90.
	rank := int(math.Ceil(float64(len(s))*q - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	beyond := len(s) - rank
	if beyond < minBeyond {
		return 0, beyond, fmt.Errorf("p%g: only %d of %d samples lie beyond it, need %d",
			q*100, beyond, len(s), minBeyond)
	}
	return s[rank-1], beyond, nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns num/den, or 0 when den is 0 (a layer the workload does not
// reach reports 0 rather than NaN, which JSON cannot carry).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
