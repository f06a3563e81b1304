package sfp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/prob"
)

// untrimmed is the full-length node analysis: h_f by
// prob.CompleteHomogeneous up to maxK and every Pr(f) and Pr(f > k)
// stored. It is the oracle the saturation-trimmed Node is held against.
type untrimmed struct {
	pr0       float64
	prf, fail []float64
}

func newUntrimmed(probs []float64, maxK int) untrimmed {
	if maxK < 0 {
		maxK = 0
	}
	pr0 := 1.0
	for _, p := range probs {
		pr0 *= 1 - p
	}
	u := untrimmed{pr0: prob.FloorP(pr0), prf: make([]float64, maxK+1), fail: make([]float64, maxK+1)}
	h, err := prob.CompleteHomogeneous(probs, maxK)
	if err != nil {
		panic(err)
	}
	residual := int64(1e11) - int64(math.Round(u.pr0*1e11))
	u.fail[0] = clampTicks(residual)
	for f := 1; f <= maxK; f++ {
		u.prf[f] = prob.FloorP(u.pr0 * h[f])
		residual -= int64(math.Round(u.prf[f] * 1e11))
		u.fail[f] = clampTicks(residual)
	}
	return u
}

func (u untrimmed) saturationK() int {
	for k := 0; k < len(u.fail)-1; k++ {
		if u.fail[k+1] >= u.fail[k] {
			return k
		}
	}
	return len(u.fail) - 1
}

// checkAgainstUntrimmed compares every query of the Node with the oracle
// bit for bit.
func checkAgainstUntrimmed(t *testing.T, label string, probs []float64, maxK int) {
	t.Helper()
	n, err := NewNode(probs, maxK)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	u := newUntrimmed(probs, maxK)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(n.PrZero(), u.pr0) {
		t.Fatalf("%s: PrZero %v, want %v", label, n.PrZero(), u.pr0)
	}
	if n.MaxK() != len(u.fail)-1 {
		t.Fatalf("%s: MaxK %d, want %d", label, n.MaxK(), len(u.fail)-1)
	}
	for k := 0; k <= n.MaxK()+2; k++ {
		want := u.fail[min(k, len(u.fail)-1)]
		if got := n.FailureProb(k); !same(got, want) {
			t.Fatalf("%s: FailureProb(%d) %v, want %v", label, k, got, want)
		}
	}
	for f := 1; f <= n.MaxK(); f++ {
		got, err := n.PrExactly(f)
		if err != nil {
			t.Fatalf("%s: PrExactly(%d): %v", label, f, err)
		}
		if !same(got, u.prf[f]) {
			t.Fatalf("%s: PrExactly(%d) %v, want %v", label, f, got, u.prf[f])
		}
	}
	if got, want := n.SaturationK(), u.saturationK(); got != want {
		t.Fatalf("%s: SaturationK %d, want %d", label, got, want)
	}
}

// TestNodeMatchesUntrimmed: a Node that stops at its saturation point
// answers every query exactly as the full-length analysis does, over
// seeded random process sets and the edge cases.
func TestNodeMatchesUntrimmed(t *testing.T) {
	edge := []struct {
		probs []float64
		maxK  int
	}{
		{nil, DefaultMaxK},
		{nil, 0},
		{[]float64{0}, DefaultMaxK},
		{[]float64{0, 0, 0}, 3},
		{[]float64{0.3, 0.4}, DefaultMaxK},       // Σp > 0.5: no early stop
		{[]float64{0.9, 0.05, 0.2}, DefaultMaxK}, // Σp > 0.5
		{[]float64{1.2e-5, 1.3e-5}, 0},
		{[]float64{1.2e-5, 1.3e-5}, 4},
		{[]float64{1e-11}, DefaultMaxK},
		{[]float64{0.5}, DefaultMaxK}, // Σp = 0.5 exactly
		{[]float64{0.25, 0.25}, 50},   // beyond DefaultMaxK
	}
	for i, c := range edge {
		checkAgainstUntrimmed(t, fmt.Sprintf("edge %d %v maxK %d", i, c.probs, c.maxK), c.probs, c.maxK)
	}
	rng := rand.New(rand.NewSource(2009))
	trials := 20000
	if testing.Short() {
		trials = 2000
	}
	for i := 0; i < trials; i++ {
		m := rng.Intn(12)
		probs := make([]float64, m)
		for j := range probs {
			switch rng.Intn(8) {
			case 0:
				probs[j] = 0
			case 1:
				probs[j] = rng.Float64() * 0.99 // large: Σp may exceed 1/2
			default:
				probs[j] = math.Pow(10, -11+10*rng.Float64()) // 1e-11 .. 1e-1
			}
		}
		maxK := rng.Intn(DefaultMaxK + 1)
		checkAgainstUntrimmed(t, fmt.Sprintf("trial %d %v maxK %d", i, probs, maxK), probs, maxK)
	}
}
