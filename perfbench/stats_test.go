package main

import "testing"

func ascending(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
	}{
		{n: 20, p: 50, want: 10},     // rank 10, exactly ten samples beyond
		{n: 21, p: 50, want: 11},     // rank ⌈10.5⌉ = 11
		{n: 100, p: 50, want: 50},    // rank 50 exactly: no float round-up to 51
		{n: 1000, p: 99, want: 990},  // rank 990, ten beyond
		{n: 1100, p: 99, want: 1089}, // rank ⌈1089⌉
		{n: 5000, p: 99, want: 4950},
	} {
		got, err := percentile(ascending(tc.n), tc.p)
		if err != nil {
			t.Errorf("p%g of %d: %v", tc.p, tc.n, err)
			continue
		}
		if got != tc.want {
			t.Errorf("p%g of %d = %g, want %g", tc.p, tc.n, got, tc.want)
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	for _, tc := range []struct {
		n int
		p float64
	}{
		{n: 0, p: 50},
		{n: 19, p: 50},    // rank 10 leaves nine beyond
		{n: 999, p: 99},   // rank 990 leaves nine beyond
		{n: 160, p: 99},   // rank 159 leaves one beyond
		{n: 5000, p: 100}, // outside (0, 100)
	} {
		if v, err := percentile(ascending(tc.n), tc.p); err == nil {
			t.Errorf("p%g of %d samples = %g, want a refusal", tc.p, tc.n, v)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 values = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 values = %g, want 2.5", got)
	}
}
