package jobs

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/retry"
)

// fastRetry is a policy quick enough for tests: real backoff machinery,
// millisecond delays.
func fastRetry(max int) *retry.Policy {
	return &retry.Policy{MaxAttempts: max, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
}

// TestRetryUntilSuccess: a job failing with a retryable error is re-run
// after backoff, the waiter's handle spans every attempt, and the attempt
// count lands in the status.
func TestRetryUntilSuccess(t *testing.T) {
	var runs atomic.Int64
	withHook(t, func(ctx context.Context, j *Job) (Artifacts, error) {
		if runs.Add(1) < 3 {
			return nil, retry.Retryable(errors.New("synthetic transient fault"))
		}
		return Artifacts{"out": []byte("ok")}, nil
	})
	s := newTestScheduler(t, Options{Workers: 1, Retry: fastRetry(5)})

	h := mustSubmit(t, s, testSpec("flaky"))
	art, err := h.Wait(context.Background())
	if err != nil {
		t.Fatalf("flaky job: %v", err)
	}
	if string(art["out"]) != "ok" {
		t.Errorf("artifact = %q, want ok", art["out"])
	}
	if got := runs.Load(); got != 3 {
		t.Errorf("ran %d times, want 3", got)
	}
	if st := h.Status(); st.Attempts != 3 || st.State != StateDone {
		t.Errorf("status = %s attempts %d, want done attempts 3", st.State, st.Attempts)
	}
}

// TestQuarantinePermanentError: a permanent error quarantines on the
// first attempt — no retries burn the budget — and the quarantine is
// sticky: a fresh Submit of the same spec joins the quarantined job and
// inherits its error instead of re-running it.
func TestQuarantinePermanentError(t *testing.T) {
	var runs atomic.Int64
	withHook(t, func(ctx context.Context, j *Job) (Artifacts, error) {
		runs.Add(1)
		return nil, errors.New("unparsable spec")
	})
	s := newTestScheduler(t, Options{Workers: 1, Retry: fastRetry(5)})

	h := mustSubmit(t, s, testSpec("poisoned"))
	if _, err := h.Wait(context.Background()); err == nil {
		t.Fatal("poisoned job succeeded")
	}
	if st := h.Status(); st.State != StateQuarantined || st.Attempts != 1 {
		t.Fatalf("status = %s attempts %d, want quarantined attempts 1", st.State, st.Attempts)
	}
	h2 := mustSubmit(t, s, testSpec("poisoned"))
	if h2.ID() != h.ID() {
		t.Fatalf("resubmit got fresh job %s, want sticky %s", h2.ID(), h.ID())
	}
	if _, err := h2.Wait(context.Background()); err == nil {
		t.Fatal("joined quarantined job reported success")
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("ran %d times, want 1", got)
	}
}

// TestQuarantineAfterBudget: a persistently retryable failure is retried
// exactly MaxAttempts times, then quarantined.
func TestQuarantineAfterBudget(t *testing.T) {
	var runs atomic.Int64
	withHook(t, func(ctx context.Context, j *Job) (Artifacts, error) {
		runs.Add(1)
		return nil, retry.Retryable(errors.New("disk still full"))
	})
	s := newTestScheduler(t, Options{Workers: 1, Retry: fastRetry(3)})

	h := mustSubmit(t, s, testSpec("doomed"))
	if _, err := h.Wait(context.Background()); err == nil {
		t.Fatal("doomed job succeeded")
	}
	if got := runs.Load(); got != 3 {
		t.Errorf("ran %d times, want 3", got)
	}
	if st := h.Status(); st.State != StateQuarantined || st.Attempts != 3 {
		t.Errorf("status = %s attempts %d, want quarantined attempts 3", st.State, st.Attempts)
	}
}

// TestRetryReopensBudget: Retry on a quarantined job re-enqueues it with
// a fresh budget window while the attempt count stays monotonic; Retry on
// anything not quarantined is refused.
func TestRetryReopensBudget(t *testing.T) {
	var heal atomic.Bool
	withHook(t, func(ctx context.Context, j *Job) (Artifacts, error) {
		if heal.Load() {
			return Artifacts{"out": []byte("healed")}, nil
		}
		return nil, retry.Retryable(errors.New("disk full"))
	})
	s := newTestScheduler(t, Options{Workers: 1, Retry: fastRetry(2)})

	h := mustSubmit(t, s, testSpec("recoverable"))
	if _, err := h.Wait(context.Background()); err == nil {
		t.Fatal("job succeeded before the fault cleared")
	}
	if st := h.Status(); st.State != StateQuarantined || st.Attempts != 2 {
		t.Fatalf("status = %s attempts %d, want quarantined attempts 2", st.State, st.Attempts)
	}
	if _, err := s.Retry("no-such-job"); err == nil {
		t.Error("Retry of unknown id succeeded")
	}

	heal.Store(true)
	h2, err := s.Retry(h.ID())
	if err != nil {
		t.Fatalf("Retry: %v", err)
	}
	if art, err := h2.Wait(context.Background()); err != nil || string(art["out"]) != "healed" {
		t.Fatalf("retried job: %v, artifact %q", err, art["out"])
	}
	if st := h2.Status(); st.State != StateDone || st.Attempts != 3 {
		t.Errorf("status = %s attempts %d, want done attempts 3 (monotonic)", st.State, st.Attempts)
	}
	if _, err := s.Retry(h.ID()); err == nil {
		t.Error("Retry of a completed job succeeded")
	}
}

// TestQuarantineSurvivesRestart: the quar| and try| journal rows restore
// a quarantined job — with its attempt history — into a fresh scheduler
// over the same state dir, and a Retry there runs it again.
func TestQuarantineSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	var heal atomic.Bool
	withHook(t, func(ctx context.Context, j *Job) (Artifacts, error) {
		if heal.Load() {
			return Artifacts{"out": []byte("healed")}, nil
		}
		return nil, retry.Retryable(errors.New("disk full"))
	})

	s1, err := New(Options{Workers: 1, Dir: dir, Retry: fastRetry(2)})
	if err != nil {
		t.Fatal(err)
	}
	h := mustSubmit(t, s1, testSpec("durable"))
	if _, err := h.Wait(context.Background()); err == nil {
		t.Fatal("job succeeded before the fault cleared")
	}
	id := h.ID()
	if err := s1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2 := newTestScheduler(t, Options{Workers: 1, Dir: dir, Retry: fastRetry(2)})
	h2, ok := s2.Get(id)
	if !ok {
		t.Fatal("quarantined job lost across restart")
	}
	if st := h2.Status(); st.State != StateQuarantined || st.Attempts != 2 {
		t.Fatalf("restored status = %s attempts %d, want quarantined attempts 2", st.State, st.Attempts)
	}
	if _, err := h2.Wait(context.Background()); err == nil {
		t.Fatal("restored quarantined job reported success")
	}

	heal.Store(true)
	h3, err := s2.Retry(id)
	if err != nil {
		t.Fatalf("Retry after restart: %v", err)
	}
	if art, err := h3.Wait(context.Background()); err != nil || string(art["out"]) != "healed" {
		t.Fatalf("retried job after restart: %v, artifact %q", err, art["out"])
	}
	if st := h3.Status(); st.Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (history preserved across restart)", st.Attempts)
	}
}

// TestNoPolicyKeepsFailuresTerminal: without Options.Retry the
// pre-self-healing behavior holds — one attempt, StateFailed, and a
// resubmit replaces the failed job rather than joining a quarantine.
func TestNoPolicyKeepsFailuresTerminal(t *testing.T) {
	var runs atomic.Int64
	withHook(t, func(ctx context.Context, j *Job) (Artifacts, error) {
		runs.Add(1)
		return nil, retry.Retryable(errors.New("transient, but nobody retries"))
	})
	s := newTestScheduler(t, Options{Workers: 1})

	h := mustSubmit(t, s, testSpec("legacy"))
	if _, err := h.Wait(context.Background()); err == nil {
		t.Fatal("job succeeded")
	}
	if st := h.Status(); st.State != StateFailed {
		t.Errorf("state = %s, want failed", st.State)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("ran %d times, want 1", got)
	}
}
