package main

import (
	"math"
	"sort"
)

// tailLadder is the fixed set of percentiles the tail rule picks from,
// lowest first. Keeping it fixed means two runs with similar sample
// counts report the same percentile.
var tailLadder = []float64{50, 75, 90, 95, 98, 99, 99.5, 99.9, 99.95, 99.99}

// minBeyond is how many samples must lie strictly above a percentile
// before it may be reported as the tail.
const minBeyond = 10

// percentile returns the p-th percentile (0..100) of sorted by the
// nearest-rank rule: the smallest sample with at least p% of the
// samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailPick is the tail percentile chosen for a sample set: the highest
// ladder percentile that leaves at least minBeyond samples above it.
type tailPick struct {
	Pct    float64 // the chosen percentile, 0 when no rung qualifies
	Beyond int     // samples strictly above its nearest rank
	N      int     // sample count
}

// pickTail applies the tail rule to a sample count n. With fewer than
// 2*minBeyond samples not even the median qualifies and Pct is 0.
func pickTail(n int) tailPick {
	best := tailPick{N: n}
	for _, p := range tailLadder {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if n-rank >= minBeyond {
			best = tailPick{Pct: p, Beyond: n - rank, N: n}
		}
	}
	return best
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the two middle ones
// for an even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// windowedTail reports a tail that one stall cannot dominate: the tail
// rule is applied to the smallest window, that percentile is taken in
// every window, and the median over windows is returned with the
// per-window values. When even the smallest window is too small, the
// rule falls back to all samples pooled.
func windowedTail(windows [][]float64) (float64, tailPick, []float64) {
	minN := -1
	for _, w := range windows {
		if len(w) > 0 && (minN < 0 || len(w) < minN) {
			minN = len(w)
		}
	}
	if minN < 0 {
		return math.NaN(), tailPick{}, nil
	}
	pick := pickTail(minN)
	if pick.Pct == 0 {
		var all []float64
		for _, w := range windows {
			all = append(all, w...)
		}
		pick = pickTail(len(all))
		if pick.Pct == 0 {
			return math.NaN(), pick, nil
		}
		v := percentile(sortedCopy(all), pick.Pct)
		return v, pick, []float64{v}
	}
	var vals []float64
	for _, w := range windows {
		if len(w) > 0 {
			vals = append(vals, percentile(sortedCopy(w), pick.Pct))
		}
	}
	return median(vals), pick, vals
}

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

// medians maps each series to its median.
func medians(series map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(series))
	for k, xs := range series {
		out[k] = median(xs)
	}
	return out
}
