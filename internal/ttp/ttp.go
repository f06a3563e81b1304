// Package ttp models a time-triggered (TTP-like) communication bus. The
// paper assumes that communications are fault tolerant and characterized
// only by worst-case transmission times ("we use a communication protocol
// such as TTP", Section 2); this package supplies that substrate: a TDMA
// scheme in which time is divided into rounds and each computation node
// owns one slot per round in which it may transmit one message.
//
// Message scheduling is earliest-slot-first: a message from node j that
// becomes ready at time t departs at the start of the earliest unbooked
// slot of node j starting at or after t and arrives at the end of that
// slot.
package ttp

import "fmt"

// Bus is a TDMA bus over a fixed set of nodes. The zero value is not
// usable; construct with NewBus.
type Bus struct {
	numNodes int
	slotLen  float64
	// nextRound[j] is the first round whose slot of node j is still free.
	// Slots are booked in non-decreasing ready-time order per node by the
	// list scheduler, so a single watermark per node suffices.
	nextRound []int
}

// NewBus returns a bus with one slot of slotLen milliseconds per node per
// round. It panics if numNodes < 1 or slotLen <= 0, which indicate
// programming errors in the caller (the platform validates its BusSpec).
func NewBus(numNodes int, slotLen float64) *Bus {
	if numNodes < 1 {
		panic(fmt.Sprintf("ttp: numNodes %d < 1", numNodes))
	}
	if slotLen <= 0 {
		panic(fmt.Sprintf("ttp: slotLen %v <= 0", slotLen))
	}
	return &Bus{
		numNodes:  numNodes,
		slotLen:   slotLen,
		nextRound: make([]int, numNodes),
	}
}

// RoundLen returns the TDMA round length (numNodes × slotLen).
func (b *Bus) RoundLen() float64 { return float64(b.numNodes) * b.slotLen }

// SlotLen returns the slot length.
func (b *Bus) SlotLen() float64 { return b.slotLen }

// Reset clears all bookings, so the same Bus can evaluate another
// candidate schedule without reallocation.
func (b *Bus) Reset() {
	for i := range b.nextRound {
		b.nextRound[i] = 0
	}
}

// Schedule books the earliest free slot of srcNode starting at or after
// ready and returns the transmission window [start, end). srcNode must be
// in [0, numNodes).
func (b *Bus) Schedule(srcNode int, ready float64) (start, end float64) {
	round := b.round(srcNode, ready)
	b.nextRound[srcNode] = round + 1
	start = float64(round)*b.RoundLen() + float64(srcNode)*b.slotLen
	return start, start + b.slotLen
}

// Peek returns the window Schedule would book, without booking it.
func (b *Bus) Peek(srcNode int, ready float64) (start, end float64) {
	start = float64(b.round(srcNode, ready))*b.RoundLen() + float64(srcNode)*b.slotLen
	return start, start + b.slotLen
}

// round returns the round of the slot Schedule books for srcNode: the
// node's first free round when its slot starts at or after ready, which
// needs no division, and otherwise the first round at or after ready.
// The shortcut is exact: below 2^52 rounds the division's floor cannot
// exceed a round whose slot already starts at or after ready.
func (b *Bus) round(srcNode int, ready float64) int {
	if srcNode < 0 || srcNode >= b.numNodes {
		panic(fmt.Sprintf("ttp: srcNode %d outside [0,%d)", srcNode, b.numNodes))
	}
	round := b.nextRound[srcNode]
	if float64(round)*b.RoundLen()+float64(srcNode)*b.slotLen >= ready {
		return round
	}
	return max(round, b.roundAtOrAfter(srcNode, ready))
}

// roundAtOrAfter returns the smallest round whose slot of srcNode starts
// at or after ready.
func (b *Bus) roundAtOrAfter(srcNode int, ready float64) int {
	if ready <= 0 {
		return 0
	}
	offset := float64(srcNode) * b.slotLen
	r := int((ready - offset) / b.RoundLen())
	if r < 0 {
		r = 0
	}
	// Guard against flooring error: advance until the slot start is at or
	// after ready.
	for float64(r)*b.RoundLen()+offset < ready {
		r++
	}
	return r
}

// InstantBus is a degenerate bus on which every message is delivered
// immediately with zero transmission time. It is used by tests and by the
// analytical examples in which the paper abstracts communication away.
type InstantBus struct{}

// Schedule returns [ready, ready): instantaneous delivery.
func (InstantBus) Schedule(srcNode int, ready float64) (start, end float64) {
	return ready, ready
}

// Reset is a no-op.
func (InstantBus) Reset() {}
