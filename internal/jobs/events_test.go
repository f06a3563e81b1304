package jobs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/runctl"
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
// events.
func TestSchedulerEvents(t *testing.T) {
	log := obs.NewEventLog()
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
	lg, err := obs.NewFlagLogger(slowDoneWriter{}, "text", "info")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestScheduler(t, Options{Workers: 1, Events: log, Log: lg})
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

// TestDerivedReplay: a durable scheduler reopened over the same Dir
// rebuilds each job's lifecycle events from its state journal, in journal
// order and marked replayed — for a job that finished, failed, was
// canceled, failed on its own while being canceled, was quarantined and
// then retried, and one left in flight — and then reports the in-flight
// one resumed. Each replayed outcome is the one the live run reported.
func TestDerivedReplay(t *testing.T) {
	dir := t.TempDir()
	var quarRuns atomic.Int64
	withHook(t, func(ctx context.Context, j *Job) (Artifacts, error) {
		switch j.spec.Fig {
		case "fail":
			return nil, errors.New("synthetic failure")
		case "cancel", "inflight":
			<-ctx.Done()
			return nil, runctl.Err(ctx)
		case "cancel-fail":
			<-ctx.Done()
			return nil, errors.New("failed while canceled")
		case "quar":
			if quarRuns.Add(1) == 1 {
				return nil, errors.New("permanent until retried")
			}
		}
		return Artifacts{"out": []byte(j.spec.Fig)}, nil
	})
	var ids []string // in submission order

	// First run, without a retry policy: done, failed, canceled, and
	// failed despite a cancel.
	s1, err := New(Options{Workers: 1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"done", "fail", "cancel", "cancel-fail"} {
		h := mustSubmit(t, s1, testSpec(label))
		if strings.HasPrefix(label, "cancel") {
			waitRunning(h)
			s1.Cancel(h.ID())
		}
		h.Wait(context.Background())
		ids = append(ids, h.ID())
	}
	if err := s1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Second run, with a policy: quarantined then retried to success, and
	// one job still running when the scheduler closes.
	s2, err := New(Options{Workers: 1, Dir: dir, Retry: fastRetry(3)})
	if err != nil {
		t.Fatal(err)
	}
	hq := mustSubmit(t, s2, testSpec("quar"))
	hq.Wait(context.Background())
	hr, err := s2.Retry(hq.ID())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hr.Wait(context.Background()); err != nil {
		t.Fatalf("retried job: %v", err)
	}
	hi := mustSubmit(t, s2, testSpec("inflight"))
	waitRunning(hi)
	ids = append(ids, hq.ID(), hi.ID())
	if err := s2.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	log := obs.NewEventLog()
	newTestScheduler(t, Options{Workers: 1, Dir: dir, Events: log})
	// Workers start only after recovery, so everything before the first
	// job.resumed was derived from the journal.
	evs := log.Events(0)
	k := 0
	for k < len(evs) && evs[k].Type != "job.resumed" {
		k++
	}
	if k == len(evs) || evs[k].Job != ids[5] || evs[k].Fields["replayed"] != nil {
		t.Fatalf("no unmarked job.resumed for the in-flight job in %+v", evs)
	}
	got := map[string][]string{}
	var submitted []string
	for _, ev := range evs[:k] {
		if ev.Fields["replayed"] != true {
			t.Errorf("derived event not marked replayed: %+v", ev)
		}
		typ := ev.Type
		if typ == "job.started" {
			typ = fmt.Sprintf("%s(%v)", typ, ev.Fields["attempt"])
		}
		got[ev.Job] = append(got[ev.Job], typ)
		if ev.Type == "job.submitted" {
			submitted = append(submitted, ev.Job)
		}
	}
	if fmt.Sprint(submitted) != fmt.Sprint(ids) {
		t.Errorf("submissions replay as %v, want journal order %v", submitted, ids)
	}
	want := [][]string{
		{"job.submitted", "job.started(1)", "job.done"},
		{"job.submitted", "job.started(1)", "job.failed"},
		{"job.submitted", "job.started(1)", "job.canceled"},
		{"job.submitted", "job.started(1)", "job.failed"},
		{"job.submitted", "job.started(1)", "job.quarantined", "job.retried", "job.started(2)", "job.done"},
		{"job.submitted", "job.started(1)"},
	}
	for i, w := range want {
		if fmt.Sprint(got[ids[i]]) != fmt.Sprint(w) {
			t.Errorf("job %d replays %v, want %v", i, got[ids[i]], w)
		}
	}
}
