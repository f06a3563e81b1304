package obs

import "testing"

func TestEventLogMemory(t *testing.T) {
	e := NewEventLog()
	ch := e.Changed()
	e.Emit("job.submitted", "j1", map[string]any{"fig": "6a"})
	select {
	case <-ch:
	default:
		t.Error("Changed channel not closed by Emit")
	}
	e.Emit("job.started", "j1", nil)
	e.Emit("job.done", "j1", map[string]any{"elapsed_ms": 12})

	evs := e.Events(0)
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != int64(i+1) {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
		if ev.Job != "j1" || ev.TimeMS == 0 {
			t.Errorf("event %d incomplete: %+v", i, ev)
		}
	}
	if got := e.Events(2); len(got) != 1 || got[0].Type != "job.done" {
		t.Errorf("Events(2) = %+v, want just job.done", got)
	}
	if e.Seq() != 3 {
		t.Errorf("Seq() = %d, want 3", e.Seq())
	}
	if e.Events(3) != nil {
		t.Errorf("Events(latest) should be empty")
	}
}

func TestEventLogRing(t *testing.T) {
	e := NewEventLog()
	for i := 0; i < eventRingCap+10; i++ {
		e.Emit("tick", "", nil)
	}
	evs := e.Events(0)
	if len(evs) != eventRingCap {
		t.Fatalf("ring holds %d, want %d", len(evs), eventRingCap)
	}
	if evs[0].Seq != 11 {
		t.Errorf("oldest retained seq %d, want 11", evs[0].Seq)
	}
}

func TestEventScope(t *testing.T) {
	e := NewEventLog()
	sc := e.Scoped("job-42")
	sc.Emit("app.timeout", map[string]any{"app": 0})
	if evs := e.Events(0); len(evs) != 1 || evs[0].Job != "job-42" {
		t.Errorf("scoped emit: %+v", evs)
	}

	var nilLog *EventLog
	nilLog.Emit("x", "", nil)
	if nilLog.Events(0) != nil || nilLog.Seq() != 0 {
		t.Error("nil log not inert")
	}
	sc = nilLog.Scoped("j")
	sc.Emit("x", nil) // must not panic
}
