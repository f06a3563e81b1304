package obs

import "testing"

// TestEventLogRingOverflow: once emissions outrun the replay ring, the
// oldest events are evicted and the oldest replayable sequence number
// moves up, so /events can compute an honest gap marker instead of
// silently skipping history.
func TestEventLogRingOverflow(t *testing.T) {
	e := NewEventLog()
	const extra = 10
	for i := 0; i < eventRingCap+extra; i++ {
		e.Emit("tick", "", nil)
	}
	evs := e.Events(0)
	if len(evs) != eventRingCap {
		t.Fatalf("ring replays %d events, want %d", len(evs), eventRingCap)
	}
	if evs[0].Seq != extra+1 {
		t.Errorf("oldest replayable seq = %d, want %d", evs[0].Seq, extra+1)
	}
	// Before overflow nothing is evicted.
	fresh := NewEventLog()
	fresh.Emit("tick", "", nil)
	if evs := fresh.Events(0); len(evs) != 1 || evs[0].Seq != 1 {
		t.Errorf("fresh log replays %+v", evs)
	}
}
