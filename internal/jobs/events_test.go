package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// eventTypes filters the log down to one job's event type sequence.
func eventTypes(log *obs.EventLog, job string) []string {
	var out []string
	for _, ev := range log.Events(0) {
		if ev.Job == job {
			out = append(out, ev.Type)
		}
	}
	return out
}

// TestSchedulerEvents: a scheduler with an event log narrates every job's
// lifecycle — submitted, started, done in order — plus dedup and failure
// events, and the log survives a reopen with identical contents.
func TestSchedulerEvents(t *testing.T) {
	dir := t.TempDir()
	log, err := obs.OpenEventLog(filepath.Join(dir, "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	withHook(t, func(ctx context.Context, j *Job) (Artifacts, error) {
		if j.spec.Fig == "boom" {
			return nil, errors.New("synthetic failure")
		}
		return Artifacts{"out": []byte("ok")}, nil
	})
	s := newTestScheduler(t, Options{Workers: 1, Events: log})

	h := mustSubmit(t, s, testSpec("good"))
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A resubmission of the finished spec dedups without re-running.
	mustSubmit(t, s, testSpec("good"))

	hb := mustSubmit(t, s, testSpec("boom"))
	if _, err := hb.Wait(context.Background()); err == nil {
		t.Fatal("boom job succeeded")
	}

	got := eventTypes(log, h.ID())
	want := []string{"job.submitted", "job.started", "job.done", "job.dedup"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("good job events = %v, want %v", got, want)
	}
	gotB := eventTypes(log, hb.ID())
	wantB := []string{"job.submitted", "job.started", "job.failed"}
	if fmt.Sprint(gotB) != fmt.Sprint(wantB) {
		t.Errorf("failed job events = %v, want %v", gotB, wantB)
	}

	// The journal replays identically after a close/reopen cycle.
	before, err := json.Marshal(log.Events(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := obs.OpenEventLog(filepath.Join(dir, "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	after, err := json.Marshal(reopened.Events(0))
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Errorf("reopened event log differs:\n%s\nwant:\n%s", after, before)
	}
}

// slowDoneWriter stalls the scheduler's "job done" log line, widening the
// gap between a job finishing and its job.done event to milliseconds.
type slowDoneWriter struct{}

func (slowDoneWriter) Write(p []byte) (int, error) {
	if strings.Contains(string(p), `msg="job done"`) {
		time.Sleep(time.Millisecond)
	}
	return len(p), nil
}

// TestDoneEventPrecedesDedup: a waiter that resubmits the moment Wait
// returns always finds job.done already logged ahead of its job.dedup —
// the scheduler emits the terminal event before it wakes waiters. The
// stalled log line makes a wake-before-emit ordering lose every time.
func TestDoneEventPrecedesDedup(t *testing.T) {
	log := obs.NewEventLog()
	withHook(t, func(ctx context.Context, j *Job) (Artifacts, error) {
		return Artifacts{"out": []byte("ok")}, nil
	})
	s := newTestScheduler(t, Options{Workers: 1, Events: log,
		Log: obs.NewTextLogger(slowDoneWriter{}, nil)})
	want := fmt.Sprint([]string{"job.submitted", "job.started", "job.done", "job.dedup"})
	for i := 0; i < 200; i++ {
		spec := testSpec(fmt.Sprintf("resubmit-%d", i))
		h := mustSubmit(t, s, spec)
		if _, err := h.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		mustSubmit(t, s, spec)
		if got := fmt.Sprint(eventTypes(log, h.ID())); got != want {
			t.Fatalf("iteration %d: events = %s, want %s", i, got, want)
		}
	}
}

// TestPanicEvent: a panicking job emits panic.recovered with the
// recovered value before its terminal job.failed event.
func TestPanicEvent(t *testing.T) {
	log := obs.NewEventLog()
	withHook(t, func(ctx context.Context, j *Job) (Artifacts, error) {
		panic("kaboom")
	})
	s := newTestScheduler(t, Options{Workers: 1, Events: log})
	h := mustSubmit(t, s, testSpec("panics"))
	if _, err := h.Wait(context.Background()); err == nil {
		t.Fatal("panicking job succeeded")
	}
	var sawPanic bool
	for _, ev := range log.Events(0) {
		if ev.Job == h.ID() && ev.Type == "panic.recovered" {
			sawPanic = true
			if ev.Fields["value"] != "kaboom" {
				t.Errorf("panic value = %v, want kaboom", ev.Fields["value"])
			}
		}
	}
	if !sawPanic {
		t.Errorf("no panic.recovered event; got %v", eventTypes(log, h.ID()))
	}
}
