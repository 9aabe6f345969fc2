package main

import (
	"math"
	"sort"
	"strconv"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

// percentileLadder is the set of percentiles a timing may be reported
// at, lowest first, in per mille so that the rule below is exact.
var percentileLadder = []int{500, 750, 900, 950, 990, 999}

// supported reports whether the given percentile (per mille) of n samples
// has at least ten samples beyond it — the rule below which a tail
// percentile is one sample's luck, not a property of the distribution.
func supported(perMille, n int) bool {
	return n*(1000-perMille) >= 10*1000
}

// highestSupported returns the highest ladder percentile (per mille) that
// n samples support, and false when not even the median has ten samples
// beyond it.
func highestSupported(n int) (int, bool) {
	best, ok := 0, false
	for _, p := range percentileLadder {
		if supported(p, n) {
			best, ok = p, true
		}
	}
	return best, ok
}

// minMax returns the extremes of xs (0, 0 when empty).
func minMax(xs []float64) (lo, hi float64) {
	for i, x := range xs {
		if i == 0 || x < lo {
			lo = x
		}
		if i == 0 || x > hi {
			hi = x
		}
	}
	return lo, hi
}

// columnMins is each cell's fastest execution across passes: rows are
// passes, columns are cells. The benchmark estimates the host time of a
// pass as the sum of these. A cell is a deterministic computation, so
// what varies between its executions is interference from the host, and
// interference only ever adds time: the fastest execution is the least
// disturbed one. On the reference host the sum of per-cell medians moved
// by 8 % between a quiet and a busy quarter of an hour and the sum of
// per-cell minima by 0.5 %. Rows shorter than the first are ignored past
// their length.
func columnMins(rows [][]float64) []float64 {
	if len(rows) == 0 {
		return nil
	}
	out := make([]float64, len(rows[0]))
	for i := range out {
		for j, r := range rows {
			if i < len(r) && (j == 0 || r[i] < out[i]) {
				out[i] = r[i]
			}
		}
	}
	return out
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

// formatFloat renders v with all its digits and no more.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
