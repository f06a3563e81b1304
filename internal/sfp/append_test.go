package sfp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sameNode compares every query of two analyses bit for bit.
func sameNode(a, b *Node) error {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !same(a.PrZero(), b.PrZero()) || a.MaxK() != b.MaxK() || a.SaturationK() != b.SaturationK() {
		return fmt.Errorf("Pr(0) %v, MaxK %d, saturation %d; want %v, %d, %d",
			a.PrZero(), a.MaxK(), a.SaturationK(), b.PrZero(), b.MaxK(), b.SaturationK())
	}
	for k := 0; k <= b.MaxK()+1; k++ {
		if x, y := a.FailureProb(k), b.FailureProb(k); !same(x, y) {
			return fmt.Errorf("FailureProb(%d) %v, want %v", k, x, y)
		}
	}
	for f := 1; f <= b.MaxK(); f++ {
		x, errA := a.PrExactly(f)
		y, errB := b.PrExactly(f)
		if errA != nil || errB != nil || !same(x, y) {
			return fmt.Errorf("PrExactly(%d) %v (%v), want %v (%v)", f, x, errA, y, errB)
		}
	}
	return nil
}

// TestAppendNodeMatchesNewNode: analyses appended one after another to a
// shared slab answer every query exactly as NewNode's do, after the whole
// slab is written, over seeded process sets of 0–80 probabilities (past
// the 64-entry row buffer) and every maxK the engine uses. A bad
// probability leaves the slab as it was.
func TestAppendNodeMatchesNewNode(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var slab []float64
	type built struct {
		nd    Node
		probs []float64
		maxK  int
	}
	var all []built
	for trial := 0; trial < 400; trial++ {
		probs := make([]float64, rng.Intn(81))
		for i := range probs {
			probs[i] = math.Pow(10, -12+11*rng.Float64()) // 1e-12 .. 1e-1
			if rng.Intn(10) == 0 {
				probs[i] = 0
			}
		}
		maxK := []int{0, 1, DefaultMaxK, 40}[trial%4]
		var b built
		var err error
		if slab, err = AppendNode(slab, &b.nd, probs, maxK); err != nil {
			t.Fatal(err)
		}
		b.probs, b.maxK = probs, maxK
		all = append(all, b)
		if trial%7 == 0 {
			n := len(slab)
			bad := append(probs[:len(probs):len(probs)], 1)
			if slab, err = AppendNode(slab, &b.nd, bad, maxK); !errors.Is(err, ErrBadProb) || len(slab) != n {
				t.Fatalf("trial %d: bad probability gave %v and slab length %d, want ErrBadProb and %d", trial, err, len(slab), n)
			}
		}
	}
	for i, b := range all {
		want, err := NewNode(b.probs, b.maxK)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameNode(&b.nd, want); err != nil {
			t.Fatalf("node %d (%d probabilities, maxK %d): %v", i, len(b.probs), b.maxK, err)
		}
	}
}

// TestAppendNodeAllocs: appending into a slab with room allocates nothing
// for up to 64 processes and maxK up to DefaultMaxK.
func TestAppendNodeAllocs(t *testing.T) {
	probs := make([]float64, 64)
	for i := range probs {
		probs[i] = 1e-6 * float64(i+1)
	}
	slab := make([]float64, 0, 2*DefaultMaxK+1)
	var nd Node
	if got := testing.AllocsPerRun(100, func() {
		if _, err := AppendNode(slab, &nd, probs, DefaultMaxK); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("AppendNode into a slab with room: %v allocations, want 0", got)
	}
}
