package main

import (
	"math"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1000, 99}, // exactly 10 beyond p99
		{999, 95},  // 9.99 beyond p99 is not 10
		{200, 95},
		{199, 90},
		{100, 90},
		{40, 75},
		{39, 50},
		{20, 50},
		{5, 50}, // nothing qualifies: the median
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); c.n >= 20 && beyond(c.n, p) < 10 {
			t.Errorf("n=%d: p%v has %d samples beyond it", c.n, p, beyond(c.n, p))
		}
	}
}

// TestWorkloadTails checks each workload's fixed tail percentile against
// the rule at the fewest ops a default run made on a 2-vCPU machine
// (README.md).
func TestWorkloadTails(t *testing.T) {
	fewest := map[string]int{"cc-design": 112, "fig6-sweep": 144, "ftesd-jobs": ftesdMaxOps, "sharded-6c": 62}
	for _, w := range workloads {
		if n := fewest[w.name]; tailPercentile(n) != w.tailPct {
			t.Errorf("%s: tail p%v, but the rule picks p%v at %d ops", w.name, w.tailPct, tailPercentile(n), n)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {75, 4}, {90, 4.6}, {100, 5}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3}, [3]float64{1.5, 5, 9.25}},
		{[]float64{2, 4}, [3]float64{1.5, 3, 4.5}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
