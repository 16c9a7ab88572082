//go:build linux

package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; xs need not be sorted and is not
// modified. An empty sample yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// midmean is the mean of the middle of xs: the sorted sample less its
// lowest and highest quarter (at least one value at each end once there are
// three). For three values it is the median; for more it moves smoothly
// where the median of a sample that takes only two values jumps from one to
// the other.
func midmean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if cut := max(1, len(s)/4); len(s) >= 3 {
		s = s[cut : len(s)-cut]
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	if len(s) == 0 {
		return 0
	}
	return sum / float64(len(s))
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method:
// position k·(n+1)/4 in the sorted sample, clamped to its ends), so the
// spread printed here is the spread the driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		if n == 1 {
			return s[0]
		}
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// relIQR is the interquartile range as a share of the median — the
// run-to-run spread a regression bound has to clear.
func relIQR(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}
