package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/runctl"
	"repro/internal/taskgen"
)

// row is one row of a figure as the row loop sees it: the key it is
// journaled and sharded under, and the function that computes its
// journal payload. A payload is one rendered table row, or one
// acceptance point that several tables render.
type row[T any] struct {
	key string
	run func(ctx context.Context, span *obs.Span) (T, error)
}

// rowState is what the row loop tells a renderer about a row.
type rowState uint8

const (
	// rowAbsent: another shard owns the row, or cancellation stopped the
	// loop before it. Renderers show "-" cells.
	rowAbsent rowState = iota
	// rowDone: the row was computed or restored from the journal.
	rowDone
	// rowMissing: a merge found the row in no journal. Renderers
	// show "!" cells.
	rowMissing
)

// rowResult is one row's outcome: its state and, when done, its payload.
type rowResult[T any] struct {
	state rowState
	val   T
}

// figure runs a figure's rows through the row loop and renders its table
// from their results. On cancellation the partial table — finished rows
// filled in, the rest absent — comes back with the typed error; any other
// error discards the table.
func figure[T any](ctx context.Context, cfg Config, rows []row[T], render func([]rowResult[T]) *Table) (*Table, error) {
	res, err := runRows(ctx, cfg, rows)
	if err != nil && !errors.Is(err, runctl.ErrCanceled) {
		return nil, err
	}
	return render(res), err
}

// runRows is the one row loop every figure runs through. In order, each
// row is restored from cfg.Journal; or, in a merge, rendered missing; or
// skipped when another slice owns it; or computed and journaled. The
// context is consulted between rows, and the row functions consult it
// between applications: cancellation returns every row finished so far
// with an error wrapping runctl.ErrCanceled, and a row interrupted midway
// is dropped whole, never journaled half-measured.
func runRows[T any](ctx context.Context, cfg Config, rows []row[T]) ([]rowResult[T], error) {
	out := make([]rowResult[T], len(rows))
	// Slice-local progress totals: a sharded worker handles only the rows
	// its shard owns, so that — not the whole grid — is what /progress and
	// -progress report against.
	owned := 0
	for _, r := range rows {
		if cfg.Slice.Owns(r.key) {
			owned++
		}
	}
	ph := cfg.Progress.Phase("experiments.rows")
	ph.AddTotal(int64(owned))
	canceled := func(key string, err error) ([]rowResult[T], error) {
		cfg.Metrics.Counter("experiments.canceled").Add(1)
		return out, fmt.Errorf("experiments: row %q: %w", key, err)
	}
	for i, r := range rows {
		// JSON round-trips float64 exactly, so a restored row renders to
		// the same bytes the original run printed.
		var saved T
		if cfg.Journal != nil && cfg.Journal.Lookup(r.key, &saved) {
			out[i] = rowResult[T]{state: rowDone, val: saved}
			ph.Add(1)
			cfg.Metrics.Counter("experiments.rows_restored").Add(1)
			cfg.Log.Info("row restored from journal", "key", r.key)
			continue
		}
		if cfg.Merge {
			cfg.Metrics.Counter("experiments.rows_missing").Add(1)
			out[i].state = rowMissing
			ph.Add(1)
			continue
		}
		if !cfg.Slice.Owns(r.key) {
			continue // another shard computes this row; the merge reassembles it
		}
		if cerr := runctl.Err(ctx); cerr != nil {
			return canceled(r.key, cerr)
		}
		span := cfg.Span.Child("row", obs.String("key", r.key))
		v, err := r.run(ctx, span)
		span.End()
		if err != nil {
			if errors.Is(err, runctl.ErrCanceled) {
				return canceled(r.key, err)
			}
			cfg.Log.Error("row failed", "key", r.key, "err", err.Error(), "span", span.ID())
			return out, fmt.Errorf("experiments: row %q: %w", r.key, err)
		}
		if cfg.Journal != nil {
			if err := cfg.Journal.Record(r.key, v); err != nil {
				return out, err
			}
		}
		if cfg.RowDone != nil {
			cfg.RowDone(r.key)
		}
		out[i] = rowResult[T]{state: rowDone, val: v}
		ph.Add(1)
		cfg.Log.Info("row done", "key", r.key, "span", span.ID())
	}
	return out, nil
}

// key is the journal key of one row: the row kind, the slack model and
// tabu tuning of its design runs, then the row's own coordinates. The
// figure name deliberately does not participate, so a row shared between
// figures (Fig. 6a and 6c both evaluate SER=1e-11, HPD=5, ArC=20) is
// computed once per journal.
func (c Config) key(kind, format string, args ...any) string {
	mp := c.MappingParams
	return fmt.Sprintf("%s|model=%d|tabu=%d,%d,%d|", kind, c.Model, mp.TabuTenure, mp.MaxNoImprove, mp.MaxIterations) +
		fmt.Sprintf(format, args...)
}

// addCells renders a row whose payload is its table cells: the cells when
// done (nothing when the row journaled none), otherwise the identity
// cells followed by "-" (absent) or "!" (missing) cells.
func addCells(t *Table, r rowResult[[]string], ident ...string) {
	if r.state == rowDone {
		if len(r.val) > 0 {
			t.AddRow(r.val)
		}
		return
	}
	fill := "-"
	if r.state == rowMissing {
		fill = "!"
	}
	cells := append([]string(nil), ident...)
	for len(cells) < len(t.Header) {
		cells = append(cells, fill)
	}
	t.AddRow(cells)
}

// app is one generated application of a row's batch.
type app struct {
	seed  int64
	procs int
	inst  *taskgen.Instance
	span  *obs.Span
}

// forApps runs fn on every application of a row's batch: c.Apps
// applications per process count in c.Procs, each generated from gen
// with its own seed (the one seed formula of the package, below), at
// most c.workers() at a time. It returns fn's results in batch order, so
// a row reduces its batch in the same order whatever order the
// applications finish in.
//
// Each application runs under its own context, bounded by c.AppTimeout.
// An application whose deadline expires while ctx is live is counted
// (experiments.app_timeouts) and the batch moves on, keeping the result
// fn returned with the deadline error: a single pathological instance
// slows a row down, it does not kill the run. A panic inside fn — these
// run on batch goroutines, where an escaped panic would kill the whole
// process — comes back as a *runctl.PanicError. The first error cancels
// the in-flight applications and starts no new ones; cancellation of ctx
// returns an error wrapping runctl.ErrCanceled.
func forApps[R any](ctx context.Context, c Config, span *obs.Span, gen taskgen.Config,
	fn func(ctx context.Context, a app) (R, error)) ([]R, error) {
	var apps []app
	for _, n := range c.Procs {
		for i := 0; i < c.Apps; i++ {
			apps = append(apps, app{seed: c.Seed + int64(i) + int64(n)*1000003, procs: n})
		}
	}
	if len(apps) == 0 {
		return nil, fmt.Errorf("experiments: empty batch (Apps=%d, Procs=%v)", c.Apps, c.Procs)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	batchCtx, stop := context.WithCancel(ctx)
	defer stop()
	ph := c.Progress.Phase("experiments.apps")
	ph.AddTotal(int64(len(apps)))
	out := make([]R, len(apps))
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	sem := make(chan struct{}, c.workers())
	for i, a := range apps {
		if batchCtx.Err() != nil {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, a app) {
			defer wg.Done()
			defer func() { <-sem }()
			if batchCtx.Err() != nil {
				return
			}
			jobsStarted.Add(1)
			defer ph.Add(1) // abandoned applications still count toward the batch
			var err error
			if out[i], err = runApp(ctx, batchCtx, c, span, gen, a, fn); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				stop()
			}
		}(i, a)
	}
	wg.Wait()
	if firstErr == nil {
		firstErr = runctl.Err(ctx)
	}
	return out, firstErr
}

// runApp generates one application and runs fn on it under its own
// deadline (see forApps). ctx is the row's context, batchCtx the batch's,
// which the first failing application cancels.
func runApp[R any](ctx, batchCtx context.Context, c Config, span *obs.Span, gen taskgen.Config, a app,
	fn func(ctx context.Context, a app) (R, error)) (r R, err error) {
	defer runctl.Recover(fmt.Sprintf("experiments app (seed %d, %d procs)", a.seed, a.procs), &err)
	if testAppHook != nil {
		testAppHook(a.seed)
	}
	a.span = span.Child("app", obs.Int64("seed", a.seed), obs.Int("processes", a.procs))
	defer a.span.End()
	appCtx := batchCtx
	if c.AppTimeout > 0 {
		var cancel context.CancelFunc
		appCtx, cancel = context.WithTimeout(batchCtx, c.AppTimeout)
		defer cancel()
	}
	gen.Seed, gen.NumProcs = a.seed, a.procs
	if a.inst, err = taskgen.Generate(gen); err != nil {
		return r, err
	}
	r, err = fn(appCtx, a)
	if errors.Is(err, context.DeadlineExceeded) && runctl.Err(ctx) == nil {
		c.Metrics.Counter("experiments.app_timeouts").Add(1)
		c.Log.Warn("application timed out",
			"seed", a.seed, "processes", a.procs, "timeout", c.AppTimeout)
		c.Events.Emit("app.timeout", map[string]any{
			"seed": a.seed, "processes": a.procs, "timeout_ms": c.AppTimeout.Milliseconds(),
		})
		a.span.SetAttr(obs.Bool("timeout", true))
		return r, nil
	}
	return r, err
}

// options returns the options of one design run of strategy s on
// application a under this configuration. Callers add the cost bound.
func (c Config) options(a app, s core.Strategy) core.Options {
	return core.Options{
		Goal:          a.inst.Goal,
		Strategy:      s,
		Model:         c.Model,
		MappingParams: c.MappingParams,
		ParentSpan:    a.span,
		Metrics:       c.Metrics,
		Progress:      c.Progress,
		Log:           c.Log,
	}
}
