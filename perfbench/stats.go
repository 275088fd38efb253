package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail read from fewer is one or two slow events, not a percentile.
const minBeyond = 10

// sample is a set of measurements of one quantity.
type sample []float64

// quantile returns the nearest-rank p-quantile (0 < p <= 1) and how
// many samples lie strictly beyond its rank.
func (s sample) quantile(p float64) (v float64, beyond int) {
	n := len(s)
	if n == 0 {
		return math.NaN(), 0
	}
	xs := append([]float64(nil), s...)
	sort.Float64s(xs)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return xs[rank-1], n - rank
}

// needed is the smallest sample count whose p-quantile has minBeyond
// samples beyond it.
func needed(p float64) int {
	for n := 1; ; n++ {
		if n-int(math.Ceil(p*float64(n))) >= minBeyond {
			return n
		}
	}
}

// tail returns the p-quantile, or an error naming the sample count
// when too few samples lie beyond it to report it.
func (s sample) tail(p float64) (float64, error) {
	v, beyond := s.quantile(p)
	if beyond < minBeyond {
		return v, fmt.Errorf("p%g of %d samples has %d beyond it, want >= %d (need %d samples)",
			100*p, len(s), beyond, minBeyond, needed(p))
	}
	return v, nil
}

func (s sample) median() float64 {
	v, _ := s.quantile(0.5)
	return v
}
