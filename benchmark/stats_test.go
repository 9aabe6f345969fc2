package main

import (
	"math"
	"testing"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %g, want 0", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of three = %g, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %g, want 2.5", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 .. 1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{0.50, 50}, {0.75, 75}, {0.99, 99}, {1, 100}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", 100*c.p, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
}

// The highest percentile a sample supports is the highest with at least
// ten samples beyond it.
func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want int // per mille
		ok   bool
	}{
		{19, 0, false}, // 9.5 beyond the median
		{20, 500, true},
		{39, 500, true}, // 9.75 beyond p75
		{40, 750, true},
		{42, 750, true}, // p2p_wire: 10.5 beyond p75, 4.2 beyond p90
		{99, 750, true},
		{100, 900, true},
		{200, 950, true},
		{1000, 990, true},
		{10000, 999, true},
	} {
		got, ok := highestSupported(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestSupported(%d) = %d, %v; want %d, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	if supported(900, 99) || !supported(900, 100) {
		t.Error("p90 needs exactly 100 samples to have ten beyond it")
	}
}

// A disturbed execution of a cell must not move the estimate, however
// the disturbances are spread over the passes.
func TestColumnMins(t *testing.T) {
	rows := [][]float64{
		{9, 2, 3}, // cell 0 disturbed in pass 0
		{1, 9, 3}, // cell 1 disturbed in pass 1
		{1, 2, 3},
	}
	if got := sum(columnMins(rows)); got != 6 {
		t.Errorf("sum of per-cell minima = %g, want 6", got)
	}
	// A pass cut short contributes the cells it has.
	got := columnMins([][]float64{{2, 2, 3}, {1}})
	if want := []float64{1, 2, 3}; len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("ragged rows: got %v, want %v", got, want)
	}
	if columnMins(nil) != nil {
		t.Error("no rows must give no columns")
	}
	lo, hi := minMax([]float64{3, -1, 2})
	if lo != -1 || hi != 3 || math.IsNaN(lo) {
		t.Errorf("minMax = %g, %g", lo, hi)
	}
}
