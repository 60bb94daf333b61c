package main

import (
	"math"
	"sort"
)

// median of a sorted slice; 0 when empty.
func median(sorted []float64) float64 { return quantile(sorted, 0.5) }

// quantile interpolates linearly between the closest ranks of a sorted slice.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// medianOf is the median of xs in any order.
func medianOf(xs []float64) float64 { return median(sortedCopy(xs)) }

// quartileSpread is the distance between the first and third quartile of xs
// as a share of their median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (the "exclusive" method). It needs at
// least two values; fewer give 0.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := sortedCopy(xs)
	q := func(k int) float64 { // k-th quartile cut point, k in 1..3
		j := k * (n + 1) / 4
		j = max(1, min(n-1, j))
		delta := float64(k*(n+1) - j*4) // may leave [0, 4]: Python extrapolates too
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(m)
}

// spearman is the rank correlation of two equally long series: the Pearson
// correlation of their ranks, tied values sharing the mean of their ranks.
// It is 0 when either series is constant.
func spearman(a, b []float64) float64 {
	n := len(a)
	if n < 2 || len(b) != n {
		return 0
	}
	ra, rb := ranks(a), ranks(b)
	mean := float64(n+1) / 2
	var cov, va, vb float64
	for i := range ra {
		da, db := ra[i]-mean, rb[i]-mean
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

func ranks(xs []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return xs[idx[i]] < xs[idx[j]] })
	r := make([]float64, len(xs))
	for lo := 0; lo < len(idx); {
		hi := lo
		for hi+1 < len(idx) && xs[idx[hi+1]] == xs[idx[lo]] {
			hi++
		}
		for k := lo; k <= hi; k++ {
			r[idx[k]] = float64(lo+hi)/2 + 1
		}
		lo = hi + 1
	}
	return r
}
