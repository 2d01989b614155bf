package stats

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the helper must sort
	}
	return xs
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("median of nothing must be NaN")
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("mean of nothing must be NaN")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n  int
		q  float64
		ok bool
	}{
		{1000, 0.99, true}, // rank 990, 10 beyond
		{999, 0.99, false}, // rank 990, 9 beyond
		{1200, 0.99, true}, // rank 1188, 12 beyond
		{20, 0.5, true},    // rank 10, 10 beyond
		{19, 0.5, false},   // rank 10, 9 beyond
		{100, 0.95, false}, // rank 95, 5 beyond
		{10, 0.0, false},   // q out of range
		{10, 1.0, false},   // q out of range
		{0, 0.5, false},    // no samples
	}
	for _, c := range cases {
		v, ok := Percentile(seq(c.n), c.q)
		if ok != c.ok {
			t.Errorf("Percentile(n=%d, q=%v) ok = %v, want %v", c.n, c.q, ok, c.ok)
		}
		if ok && v != math.Ceil(c.q*float64(c.n)) {
			t.Errorf("Percentile(n=%d, q=%v) = %v, want nearest rank %v", c.n, c.q, v, math.Ceil(c.q*float64(c.n)))
		}
		if !ok && !math.IsNaN(v) {
			t.Errorf("unreportable percentile must be NaN, got %v", v)
		}
	}
}
