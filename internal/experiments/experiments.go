// Package experiments is the evaluation harness reproducing Section 7 of
// the paper: acceptance-rate sweeps over hardening performance degradation
// (HPD), soft error rate (SER) and maximum architecture cost (ArC) for the
// MIN, MAX and OPT design strategies on batches of synthetic applications,
// plus the ablation studies called out in DESIGN.md.
//
// An application is accepted when the strategy finds an implementation
// that meets its reliability goal, is schedulable, and does not exceed the
// maximum architectural cost.
//
// Every figure is a list of rows run through one row loop (runRows): a
// row is one rendered table row, or one acceptance point, and the loop
// journals, restores, shards and merges every figure's rows the same
// way. A row computes over one batch of generated applications through
// one iterator (forApps), which owns the seeds, the per-application
// deadline and panic recovery.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/shard"
	"repro/internal/taskgen"
)

// RowStore is where completed rows are journaled and restored from. A
// *runstate.Journal is the production store for a live run; a *shard.Rows
// (the read-only union of per-shard journals) is the store of a merge.
type RowStore interface {
	// Lookup reports whether key has a stored row, unmarshalling its
	// payload into v when v is non-nil.
	Lookup(key string, v any) bool
	// Record stores a freshly completed row under key.
	Record(key string, v any) error
}

// jobsStarted counts batch applications that began real work, across all
// rows; the fail-fast regression test reads it to prove that a failing
// batch does not run to completion.
var jobsStarted atomic.Int64

// testAppHook, when non-nil, runs at the start of every application job.
// Tests use it to inject panics at a deterministic point inside the
// batch goroutines; it is never set in production.
var testAppHook func(seed int64)

// Config controls batch size and execution of an experiment run.
type Config struct {
	// Apps is the number of synthetic applications per process count
	// (the paper uses 150; the default harness uses fewer for a quick
	// turnaround — pass -apps to cmd/paperbench for full scale).
	Apps int
	// Procs lists the application sizes (paper: 20 and 40).
	Procs []int
	// Seed bases the deterministic generation.
	Seed int64
	// Workers bounds the parallelism across applications of a batch
	// (0 = GOMAXPROCS).
	Workers int
	// MappingParams tunes the tabu search.
	MappingParams mapping.Params
	// Model selects the recovery-slack accounting for all runs.
	Model sched.SlackModel
	// Graphs splits each generated application into this many task
	// graphs (0 or 1 = single graph).
	Graphs int
	// Span, when non-nil, nests the harness's per-row and per-app spans
	// (and the design runs under them) below it; Metrics receives the
	// counters of every run; Progress receives live progress (the
	// "experiments.rows" phase per row, "experiments.apps" per batch
	// application, plus the per-run phases underneath); Log receives
	// structured records (one per row). All are optional observability
	// hooks — see internal/obs.
	Span     *obs.Span
	Metrics  *obs.Registry
	Progress *obs.Progress
	Log      *obs.Logger
	// Events, when non-nil, receives low-rate lifecycle events the fleet
	// event stream surfaces per job: currently one "app.timeout" per
	// application that hit AppTimeout. Like the other hooks it is
	// observation-only and nil-disabled.
	Events *obs.EventScope
	// AppTimeout, when > 0, puts a deadline on each application's design
	// runs. An application that exceeds it is counted in the
	// experiments.app_timeouts counter and the row moves on: acceptance
	// rows count it as rejected by the strategies it did not finish, the
	// other rows leave it out — a single pathological instance slows a
	// row down, it does not kill the run.
	AppTimeout time.Duration
	// Journal, when non-nil, makes the sweep crash-safe: every completed
	// row (an acceptance point or a rendered table row) is recorded under a
	// deterministic key, and a later run with the same configuration
	// restores recorded rows instead of recomputing them. Deterministic
	// generation makes restored and recomputed rows byte-identical.
	// Production runs pass a *runstate.Journal; merges pass the read-only
	// union of per-shard journals. Assign only non-nil concrete values.
	Journal RowStore
	// Slice shards the sweep: this process computes only the rows the
	// slice owns (shard.Slice.Owns) — the other rows are skipped (rendered
	// as "-" cells) and contribute nothing to progress totals, so N
	// workers with disjoint slices cover the grid exactly once. The zero
	// Slice computes every row.
	Slice shard.Slice
	// Merge renders the figure from Journal alone: a merge never computes
	// — that is what makes the merged table provably the union of what
	// the workers ran — so a row Journal cannot serve renders as "!"
	// cells. The store records it; the caller decides whether the gap is
	// fatal.
	Merge bool
	// RowDone, when non-nil, is called with the journal key of each row
	// after it was freshly computed (journal-restored rows do not fire
	// it). Tests use it to cancel at exact row boundaries.
	RowDone func(key string)
}

// DefaultConfig returns a configuration sized for minutes-scale runs.
func DefaultConfig() Config {
	return Config{Apps: 20, Procs: []int{20, 40}, Seed: 1}
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Point is one configuration of the sweep space.
type Point struct {
	SER float64 // transient error rate per cycle at minimum hardening
	HPD float64 // hardening performance degradation, percent
	ArC float64 // maximum architectural cost
}

// Rates maps each strategy to its acceptance percentage at a point.
type Rates map[core.Strategy]float64

// strategies are the design strategies of an acceptance row, in the
// order they run on each application.
var strategies = []core.Strategy{core.MIN, core.MAX, core.OPT}

// pointKey is the journal key of one acceptance point. The slack model
// and tabu tuning participate because the ablation studies revisit the
// same (SER, HPD, ArC) coordinates under different models.
func (c Config) pointKey(pt Point) string {
	return c.key("acceptance", "graphs=%d|ser=%g|hpd=%g|arc=%g", c.Graphs, pt.SER, pt.HPD, pt.ArC)
}

// pointRates is the journal payload of an acceptance row: each
// strategy's acceptance percentage under its name.
type pointRates map[string]float64

// acceptanceRow is the row of one acceptance point: MIN, MAX and OPT run
// on every application of the batch, and a strategy's rate is the
// percentage of applications it implements within pt.ArC. An application
// that times out keeps the strategies that finished before the deadline
// and counts as rejected for the rest. With idealBus the TDMA bus is
// replaced by an instantaneous one (zero slot length makes core.Run skip
// the bus), for the bus ablation.
func (c Config) acceptanceRow(pt Point, idealBus bool) row[pointRates] {
	key := c.pointKey(pt)
	if idealBus {
		key += "|bus=instantaneous"
	}
	return row[pointRates]{key: key, run: func(ctx context.Context, span *obs.Span) (pointRates, error) {
		gen := taskgen.DefaultConfig(0, 0, pt.SER, pt.HPD)
		gen.NumGraphs = c.Graphs
		apps, err := forApps(ctx, c, span, gen, func(ctx context.Context, a app) (feasible [3]bool, err error) {
			if idealBus {
				a.inst.Platform.Bus = platform.BusSpec{}
			}
			for i, s := range strategies {
				opts := c.options(a, s)
				opts.MaxCost = pt.ArC
				res, err := core.RunContext(ctx, a.inst.App, a.inst.Platform, opts)
				if err != nil {
					return feasible, err
				}
				feasible[i] = res.Feasible
			}
			return feasible, nil
		})
		if err != nil {
			return nil, err
		}
		rates := make(pointRates, len(strategies))
		for i, s := range strategies {
			n := 0
			for _, feasible := range apps {
				if feasible[i] {
					n++
				}
			}
			rates[s.String()] = 100 * float64(n) / float64(len(apps))
		}
		return rates, nil
	}}
}

// Acceptance evaluates all three strategies at the given point over the
// configured application batch and returns the acceptance percentages:
// one acceptance row through the row loop. A point another shard owns, or
// that a merge found missing, returns nil rates. The context is
// consulted between applications; a done context cancels the in-flight
// applications and returns an error wrapping runctl.ErrCanceled.
func Acceptance(ctx context.Context, cfg Config, pt Point) (Rates, error) {
	res, err := runRows(ctx, cfg, []row[pointRates]{cfg.acceptanceRow(pt, false)})
	if err != nil || res[0].state != rowDone {
		return nil, err
	}
	rates := make(Rates, len(strategies))
	for _, s := range strategies {
		rates[s] = res[0].val[s.String()]
	}
	return rates, nil
}

// The sweep axes of the paper's Fig. 6.
var (
	// HPDs are the hardening performance degradations of Fig. 6a/6b.
	HPDs = []float64{5, 25, 50, 100}
	// SERs are the soft error rates of Fig. 6c/6d.
	SERs = []float64{1e-12, 1e-11, 1e-10}
	// ArCs are the maximum architecture costs of Fig. 6b.
	ArCs = []float64{15, 20, 25}
)

// cell formats one strategy's acceptance rate at a point: "-" when the
// point was not reached before cancellation or belongs to another shard,
// "!" when a merge found it missing from every journal.
func cell(r rowResult[pointRates], s core.Strategy) string {
	switch r.state {
	case rowAbsent:
		return "-"
	case rowMissing:
		return "!"
	}
	return fmt.Sprintf("%.0f", r.val[s.String()])
}

// Fig6a reproduces Fig. 6a: % accepted architectures as a function of HPD
// for SER = 1e-11 and ArC = 20. On cancellation it returns the partial
// table — completed points filled in, the rest "-" — together with the
// typed error, so the operator keeps every finished row.
func Fig6a(ctx context.Context, cfg Config) (*Table, error) {
	pts := make([]Point, len(HPDs))
	for i, hpd := range HPDs {
		pts[i] = Point{SER: 1e-11, HPD: hpd, ArC: 20}
	}
	return pointColumns(ctx, cfg, "Fig. 6a — % accepted vs HPD (SER=1e-11, ArC=20)", labels(HPDs, "HPD=%g%%"), pts)
}

// Fig6b reproduces the Fig. 6b table: % accepted for each HPD and maximum
// architecture cost at SER = 1e-11.
func Fig6b(ctx context.Context, cfg Config) (*Table, error) {
	var pts []Point
	var rows []row[pointRates]
	for _, hpd := range HPDs {
		for _, arc := range ArCs {
			pt := Point{SER: 1e-11, HPD: hpd, ArC: arc}
			pts = append(pts, pt)
			rows = append(rows, cfg.acceptanceRow(pt, false))
		}
	}
	return figure(ctx, cfg, rows, func(res []rowResult[pointRates]) *Table {
		t := NewTable("Fig. 6b — % accepted by HPD and ArC (SER=1e-11)",
			[]string{"HPD", "ArC", "MAX", "MIN", "OPT"})
		for i, pt := range pts {
			r := res[i]
			t.AddRow([]string{fmt.Sprintf("%g%%", pt.HPD), fmt.Sprintf("%g", pt.ArC),
				cell(r, core.MAX), cell(r, core.MIN), cell(r, core.OPT)})
		}
		return t
	})
}

// Fig6c reproduces Fig. 6c: % accepted as a function of SER for HPD = 5%
// and ArC = 20.
func Fig6c(ctx context.Context, cfg Config) (*Table, error) {
	return serSweep(ctx, cfg, 5, "Fig. 6c")
}

// Fig6d reproduces Fig. 6d: % accepted as a function of SER for HPD =
// 100% and ArC = 20.
func Fig6d(ctx context.Context, cfg Config) (*Table, error) {
	return serSweep(ctx, cfg, 100, "Fig. 6d")
}

func serSweep(ctx context.Context, cfg Config, hpd float64, name string) (*Table, error) {
	pts := make([]Point, len(SERs))
	for i, ser := range SERs {
		pts[i] = Point{SER: ser, HPD: hpd, ArC: 20}
	}
	return pointColumns(ctx, cfg, fmt.Sprintf("%s — %% accepted vs SER (HPD=%g%%, ArC=20)", name, hpd), labels(SERs, "SER=%.0e"), pts)
}

// pointColumns runs one acceptance row per point and renders the points
// as columns, one table row per strategy.
func pointColumns(ctx context.Context, cfg Config, title string, labels []string, pts []Point) (*Table, error) {
	rows := make([]row[pointRates], len(pts))
	for i, pt := range pts {
		rows[i] = cfg.acceptanceRow(pt, false)
	}
	return figure(ctx, cfg, rows, func(res []rowResult[pointRates]) *Table {
		t := NewTable(title, append([]string{"strategy"}, labels...))
		for _, s := range []core.Strategy{core.MAX, core.MIN, core.OPT} {
			cells := []string{s.String()}
			for _, r := range res {
				cells = append(cells, cell(r, s))
			}
			t.AddRow(cells)
		}
		return t
	})
}

// variants runs one acceptance row per variant of an ablation and renders
// each as a table row: the variant's name, then MIN, MAX and OPT.
func variants(ctx context.Context, cfg Config, title, kind string, names []string, rows []row[pointRates]) (*Table, error) {
	return figure(ctx, cfg, rows, func(res []rowResult[pointRates]) *Table {
		t := NewTable(title, []string{kind, "MIN", "MAX", "OPT"})
		for i, name := range names {
			r := res[i]
			t.AddRow([]string{name, cell(r, core.MIN), cell(r, core.MAX), cell(r, core.OPT)})
		}
		return t
	})
}

func labels(xs []float64, format string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf(format, x)
	}
	return out
}
