package main

import (
	"math"
	"testing"
)

func TestPickTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		pct    float64
		beyond int
	}{
		{19, 0, 0},         // not even the median leaves ten above it
		{20, 50, 10},       // the median does
		{100, 90, 10},      // p95 would leave only five
		{3000, 99.5, 15},   // p99.9 would leave three
		{20000, 99.95, 10}, // exactly ten beyond still qualifies
	} {
		got := pickTail(c.n)
		if got.Pct != c.pct || got.Beyond != c.beyond || got.N != c.n {
			t.Errorf("pickTail(%d) = %+v, want pct %v with %d beyond", c.n, got, c.pct, c.beyond)
		}
		if got.Pct > 0 && got.Beyond < minBeyond {
			t.Errorf("pickTail(%d) leaves %d samples beyond, want >= %d", c.n, got.Beyond, minBeyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {95, 10}, {10, 1}, {0, 1}, {100, 10}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestWindowedTailIsMedianOfWindowTails(t *testing.T) {
	win := func(peak float64) []float64 {
		w := make([]float64, 100)
		for i := range w {
			w[i] = float64(i + 1)
		}
		w[99] = peak // a stall shows only in the window's maximum
		return w
	}
	// 100 samples per window: p90 leaves exactly ten above it.
	got, pick, _ := windowedTail([][]float64{win(100), win(5000), win(100)})
	if pick.Pct != 90 || got != 90 {
		t.Errorf("windowedTail = %v at p%v, want 90 at p90", got, pick.Pct)
	}
	// Windows too small for any rung fall back to the pooled samples.
	got, pick, _ = windowedTail([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}})
	if pick.Pct != 50 || pick.N != 20 || got != 10 {
		t.Errorf("pooled fallback = %v at %+v, want 10 at p50 of 20", got, pick)
	}
}
