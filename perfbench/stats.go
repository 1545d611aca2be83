package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by the nearest-rank
// rule, sorting xs in place; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median is quantile(xs, 0.5) on a copy, leaving xs unsorted.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// geomean returns the geometric mean of positive xs; 0 for none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// mean returns the arithmetic mean of xs; 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a / b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// us, ms and secs express a duration in microseconds, milliseconds and
// seconds.
func us(d time.Duration) float64   { return float64(d) / 1e3 }
func ms(d time.Duration) float64   { return float64(d) / 1e6 }
func secs(d time.Duration) float64 { return d.Seconds() }
