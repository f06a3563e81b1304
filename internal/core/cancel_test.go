package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/paper"
	"repro/internal/runctl"
)

// cancelAfter is a context whose Err flips to context.Canceled after a
// fixed number of Err calls — every cancellation checkpoint in the stack
// goes through runctl.Err, so this cancels at an exact cooperative
// boundary instead of racing a timer.
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

// TestRunContextMatchesRun: a live context changes nothing.
func TestRunContextMatchesRun(t *testing.T) {
	app := paper.Fig1Application()
	pl := paper.Fig1Platform()
	want, err := Run(app, pl, fig1Opts(OPT))
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunContext(context.Background(), app, pl, fig1Opts(OPT))
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != want.Cost || got.Feasible != want.Feasible ||
		got.ArchsExplored != want.ArchsExplored || got.Evaluations != want.Evaluations {
		t.Errorf("live-context run diverged: %+v vs %+v", got, want)
	}
}

// TestRunContextCanceledUpfront: an already-canceled context returns an
// empty-but-valid partial Result and a typed error, before any
// architecture is explored.
func TestRunContextCanceledUpfront(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, paper.Fig1Application(), paper.Fig1Platform(), fig1Opts(OPT))
	if !errors.Is(err, runctl.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if res == nil {
		t.Fatal("canceled run returned nil result")
	}
	if res.ArchsExplored != 0 || res.Feasible {
		t.Errorf("upfront cancel explored %d archs, feasible=%v", res.ArchsExplored, res.Feasible)
	}
}

// TestRunContextMidRunDeterministicPartial: canceling at the same
// cooperative checkpoint twice yields the same partial result, and the
// partial explored strictly less than the full run.
func TestRunContextMidRunDeterministicPartial(t *testing.T) {
	app := paper.Fig1Application()
	pl := paper.Fig1Platform()
	full, err := Run(app, pl, fig1Opts(OPT))
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		// A full fig1 OPT run consults the context ~25 times; 12 lands the
		// cancel mid-exploration.
		res, err := RunContext(newCancelAfter(12), app, pl, fig1Opts(OPT))
		if !errors.Is(err, runctl.ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
		if res == nil {
			t.Fatal("no partial result")
		}
		return res
	}
	a, b := run(), run()
	if a.ArchsExplored != b.ArchsExplored || a.Evaluations != b.Evaluations ||
		a.Feasible != b.Feasible || a.Cost != b.Cost {
		t.Errorf("canceled runs diverged: %+v vs %+v", a, b)
	}
	if a.Evaluations >= full.Evaluations {
		t.Errorf("canceled run evaluated %d ≥ full run's %d", a.Evaluations, full.Evaluations)
	}
	if a.Feasible && a.Cost < full.Cost {
		t.Error("partial beats the full exploration — trajectories diverged")
	}
}
