package ttp

import (
	"math"
	"math/rand"
	"testing"
)

func TestBusBasics(t *testing.T) {
	b := NewBus(2, 5)
	if b.RoundLen() != 10 || b.SlotLen() != 5 {
		t.Fatalf("round %v slot %v", b.RoundLen(), b.SlotLen())
	}
	// Node 0 owns [0,5), node 1 owns [5,10), then the next round.
	s, e := b.Schedule(0, 0)
	if s != 0 || e != 5 {
		t.Errorf("first node-0 slot = [%v,%v), want [0,5)", s, e)
	}
	s, e = b.Schedule(1, 0)
	if s != 5 || e != 10 {
		t.Errorf("first node-1 slot = [%v,%v), want [5,10)", s, e)
	}
	// Second message from node 0 goes to round 1.
	s, e = b.Schedule(0, 0)
	if s != 10 || e != 15 {
		t.Errorf("second node-0 slot = [%v,%v), want [10,15)", s, e)
	}
}

func TestBusReadyAlignment(t *testing.T) {
	b := NewBus(3, 4) // round = 12; node 1 slots start at 4, 16, 28, ...
	s, _ := b.Schedule(1, 5)
	if s != 16 {
		t.Errorf("slot after ready=5 starts at %v, want 16", s)
	}
	// Ready exactly at a slot start uses that slot.
	s, _ = b.Schedule(1, 28)
	if s != 28 {
		t.Errorf("slot at ready=28 starts at %v, want 28", s)
	}
}

func TestBusNoDoubleBooking(t *testing.T) {
	b := NewBus(2, 5)
	seen := map[float64]bool{}
	for i := 0; i < 50; i++ {
		s, _ := b.Schedule(0, 0)
		if seen[s] {
			t.Fatalf("slot %v booked twice", s)
		}
		seen[s] = true
	}
}

func TestBusReset(t *testing.T) {
	b := NewBus(2, 5)
	b.Schedule(0, 0)
	b.Reset()
	if s, _ := b.Schedule(0, 0); s != 0 {
		t.Errorf("after Reset, first slot = %v, want 0", s)
	}
}

func TestBusPeekDoesNotBook(t *testing.T) {
	b := NewBus(2, 5)
	p1, _ := b.Peek(0, 0)
	p2, _ := b.Peek(0, 0)
	if p1 != p2 {
		t.Errorf("Peek booked a slot: %v then %v", p1, p2)
	}
	s, _ := b.Schedule(0, 0)
	if s != p1 {
		t.Errorf("Schedule = %v, Peek promised %v", s, p1)
	}
}

func TestBusPanicsOnBadArgs(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		f()
	}
	mustPanic("zero nodes", func() { NewBus(0, 5) })
	mustPanic("zero slot", func() { NewBus(2, 0) })
	b := NewBus(2, 5)
	mustPanic("bad src", func() { b.Schedule(2, 0) })
	mustPanic("bad peek src", func() { b.Peek(-1, 0) })
}

// TestBusInvariants checks, over random ready times, that every booked
// window belongs to the source node's slot positions, starts at or after
// the ready time, and that per-node bookings never overlap.
func TestBusInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(5)
		slot := 1 + rng.Float64()*9
		b := NewBus(n, slot)
		round := b.RoundLen()
		lastEnd := make([]float64, n)
		ready := make([]float64, n)
		for i := 0; i < 200; i++ {
			src := rng.Intn(n)
			// Ready times non-decreasing per node, as produced by the list
			// scheduler.
			ready[src] += rng.Float64() * 20
			s, e := b.Schedule(src, ready[src])
			if s < ready[src] {
				t.Fatalf("slot starts %v before ready %v", s, ready[src])
			}
			if w := e - s; w-slot > 1e-9 || slot-w > 1e-9 {
				t.Fatalf("slot width %v, want %v", w, slot)
			}
			// Position within the round must match the source node (up to
			// floating-point wrap at the round boundary).
			pos := math.Mod(s, round)
			diff := math.Abs(pos - float64(src)*slot)
			if wrap := math.Abs(diff - round); diff > 1e-9 && wrap > 1e-9 {
				t.Fatalf("slot at %v not aligned for node %d (pos %v)", s, src, pos)
			}
			if s < lastEnd[src]-1e-9 {
				t.Fatalf("node %d slots overlap: start %v before previous end %v", src, s, lastEnd[src])
			}
			lastEnd[src] = e
		}
	}
}

func TestInstantBus(t *testing.T) {
	var b InstantBus
	s, e := b.Schedule(0, 42)
	if s != 42 || e != 42 {
		t.Errorf("InstantBus = [%v,%v), want [42,42)", s, e)
	}
	b.Reset() // must not panic
}

// refRound is the booking rule of Schedule written as a division and a
// guard only: the first free round of src, or the first round whose slot
// starts at or after ready when that is later.
func refRound(b *Bus, src int, ready float64) int {
	round := b.nextRound[src]
	if ready <= 0 {
		return round
	}
	offset := float64(src) * b.slotLen
	r := int((ready - offset) / b.RoundLen())
	if r < 0 {
		r = 0
	}
	for float64(r)*b.RoundLen()+offset < ready {
		r++
	}
	return max(round, r)
}

// FuzzBusSchedule checks the booking shortcut of Schedule and Peek, which
// skips the division whenever the first free slot already starts at or
// after ready, against refRound: the same round for a first free round
// below 2^52 and any ready time up to 2^50 rounds.
func FuzzBusSchedule(f *testing.F) {
	for _, c := range []struct {
		nodes  uint8
		slot   float64
		src    uint8
		booked uint64
		ready  float64
		atSlot bool // ready at the exact start of the first free slot
	}{
		{2, 5, 0, 0, 0, false},
		{2, 5, 1, 0, -3, false},
		{3, 4, 1, 2, 28, true},
		{3, 4, 1, 0, 28, false},
		{3, 4, 1, 2, 28.5, false},
		{3, 4, 1, 2, 27.5, false},
		{3, 0.1, 2, 7, 0, true},
		{5, 1.3, 4, 1 << 20, 0.5, true},
		{4, 0.7, 3, 1 << 40, 1e12, true},
		{7, 0.3, 6, 1<<52 - 1, 1e15, true},
		{1, 2.5, 0, 1 << 51, -1, false},
		{2, 5, 1, 3, 34.999999999, false},
	} {
		ready := c.ready
		if c.atSlot {
			b := NewBus(int(c.nodes), c.slot)
			ready = float64(c.booked)*b.RoundLen() + float64(c.src)*b.slotLen
		}
		f.Add(c.nodes, c.slot, c.src, c.booked, ready)
	}
	f.Fuzz(func(t *testing.T, nodes uint8, slot float64, src uint8, booked uint64, ready float64) {
		n := max(1, int(nodes%17))
		if !(slot > 0 && slot <= 1e6) {
			return
		}
		b := NewBus(n, slot)
		s := int(src) % n
		b.nextRound[s] = int(booked % (1 << 52))
		if math.Abs(ready) > (1<<50)*b.RoundLen() {
			return
		}
		want := refRound(b, s, ready)
		if ps, _ := b.Peek(s, ready); ps != float64(want)*b.RoundLen()+float64(s)*slot {
			t.Fatalf("Peek(%d, %v) with round %d free starts at %v, want round %d", s, ready, b.nextRound[s], ps, want)
		}
		// Schedule at ready, then at the end of the window it booked, then
		// at the exact start of the node's first free slot.
		r := ready
		for i := 0; i < 3; i++ {
			want := refRound(b, s, r)
			start, end := b.Schedule(s, r)
			if start != float64(want)*b.RoundLen()+float64(s)*slot || end != start+slot || b.nextRound[s] != want+1 {
				t.Fatalf("Schedule(%d, %v) booked [%v, %v) and left round %d free, want round %d",
					s, r, start, end, b.nextRound[s], want)
			}
			r = end
			if i == 1 {
				r = float64(b.nextRound[s])*b.RoundLen() + float64(s)*slot
			}
		}
	})
}
