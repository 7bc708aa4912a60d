package main

import (
	"fmt"
	"sort"
	"time"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample (the mean of the two middle ones for an
// even count), 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a tail read off fewer is one or two outliers, not a percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100). It
// refuses when fewer than minBeyond samples lie beyond the returned one.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v outside (0, 100)", p)
	}
	s := sorted(xs)
	rank := int(float64(len(s))*p/100+0.999999) - 1 // ceil(n·p/100) − 1
	if rank < 0 {
		rank = 0
	}
	if beyond := len(s) - 1 - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, need %d", p, len(s), beyond, minBeyond)
	}
	return s[rank], nil
}

// tail returns the highest of p99, p95, p90 and p75 that the samples
// support, and which one it is; the median (pct 50) when they support none.
func tail(xs []float64) (value, pct float64) {
	for _, p := range []float64{99, 95, 90, 75} {
		if v, err := percentile(xs, p); err == nil {
			return v, p
		}
	}
	return median(xs), 50
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives — the acceptance rule this benchmark
// is held to. Fewer than four samples fall back to (max − min) / median.
func quartileSpread(xs []float64) float64 {
	s := sorted(xs)
	med := median(s)
	if len(s) < 2 || med == 0 {
		return 0
	}
	if len(s) < 4 {
		return (s[len(s)-1] - s[0]) / med
	}
	quartile := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return (quartile(3) - quartile(1)) / med
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
