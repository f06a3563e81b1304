package mapping

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/evalengine"
	"repro/internal/runctl"
)

// cancelAfter is a context whose Err flips to context.Canceled after a
// fixed number of Err calls, so tests can cancel at an exact cooperative
// checkpoint instead of racing a timer.
type cancelAfter struct {
	context.Context
	calls atomic.Int64
	after int64
}

func newCancelAfter(after int64) *cancelAfter {
	return &cancelAfter{Context: context.Background(), after: after}
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestOptimizeContextMatchesOptimize: a live context changes nothing —
// the context-aware entry point returns the exact trajectory of the
// legacy one.
func TestOptimizeContextMatchesOptimize(t *testing.T) {
	p := fig1Problem()
	want, err := Optimize(evalengine.New(p), nil, ArchitectureCost, Params{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := OptimizeContext(context.Background(), evalengine.New(p), nil, ArchitectureCost, Params{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "live context", got, want)
}

// TestOptimizeContextCanceledUpfront: an already-canceled context still
// yields the fully evaluated initial mapping — best-so-far is never nil
// — with an error wrapping both runctl.ErrCanceled and context.Canceled.
func TestOptimizeContextCanceledUpfront(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := OptimizeContext(ctx, evalengine.New(fig1Problem()), nil, ScheduleLength, Params{})
	if !errors.Is(err, runctl.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if res == nil || res.Solution == nil {
		t.Fatal("canceled search returned no partial result")
	}
	if res.Evaluations != 1 {
		t.Errorf("evaluations = %d, want exactly the initial evaluation", res.Evaluations)
	}
}

// TestOptimizeContextDeadline: a deadline miss reads as ErrCanceled AND
// DeadlineExceeded but not as a plain interrupt, which is how callers
// distinguish per-app timeouts from operator cancellation.
func TestOptimizeContextDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := OptimizeContext(ctx, evalengine.New(fig1Problem()), nil, ScheduleLength, Params{})
	if !errors.Is(err, runctl.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Errorf("deadline err %v must not read as plain cancel", err)
	}
	if res == nil {
		t.Fatal("no partial result")
	}
}

// TestOptimizeContextMidSearchDeterministicPartial: canceling at the
// same cooperative checkpoint twice yields byte-identical partial
// results, and the partial is a genuine prefix of the full search (its
// best solution can only be matched or improved by running longer).
func TestOptimizeContextMidSearchDeterministicPartial(t *testing.T) {
	p := fig1Problem()
	full, err := Optimize(evalengine.New(p), nil, ArchitectureCost, Params{})
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		res, err := OptimizeContext(newCancelAfter(2), evalengine.New(p), nil, ArchitectureCost, Params{})
		if !errors.Is(err, runctl.ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
		if res == nil || res.Solution == nil {
			t.Fatal("no partial result")
		}
		return res
	}
	a, b := run(), run()
	assertSameResult(t, "repeat canceled run", b, a)
	if a.Evaluations >= full.Evaluations {
		t.Errorf("canceled run evaluated %d ≥ full run's %d", a.Evaluations, full.Evaluations)
	}
	if lessObj(objective(ArchitectureCost, a.Solution), objective(ArchitectureCost, full.Solution)) {
		t.Error("partial result beats the full search — trajectories diverged")
	}
}
