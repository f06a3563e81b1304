package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/evalengine"
	"repro/internal/obs"
	"repro/internal/runctl"
	"repro/internal/taskgen"
)

// rowKey is the journal key of one runtime-study row.
func (c Config) rowKey(ser, hpd float64, n int, s core.Strategy) string {
	mp := c.MappingParams
	return fmt.Sprintf("runtime|model=%d|tabu=%d,%d,%d|ser=%g|hpd=%g|n=%d|strategy=%s",
		c.Model, mp.TabuTenure, mp.MaxNoImprove, mp.MaxIterations, ser, hpd, n, s)
}

// RuntimeStudy measures the wall-clock execution time of the design
// strategies per application size, the counterpart of the paper's
// reported "between 3 minutes and 60 minutes" on a Pentium 4 (Section 7).
// Each MIN/MAX/OPT row also reports the evaluation-engine counters summed
// over the batch — architectures explored, redundancy evaluations, cache
// hit rate, schedule builds, SFP analyses built vs reused, and the time
// spent in the re-execution and scheduling layers — which dominate the
// cost.
//
// The context is consulted between applications; cancellation returns
// the rows completed so far together with an error wrapping
// runctl.ErrCanceled. Completed rows are journaled (cfg.Journal) as
// their rendered cells, so a resumed study replays them verbatim;
// cfg.AppTimeout bounds each application, and a timed-out application is
// skipped (counted in experiments.app_timeouts) rather than sinking the
// whole row.
func RuntimeStudy(ctx context.Context, cfg Config, ser, hpd float64) (*Table, error) {
	t := NewTable(fmt.Sprintf("Strategy runtime (SER=%.0e, HPD=%g%%, %d apps per size)", ser, hpd, cfg.Apps),
		[]string{"processes", "strategy", "mean", "max", "mean archs", "mean evals",
			"cache hit", "opt hit", "sched builds", "sfp built/reused", "reexec", "sched"})
	strategies := []core.Strategy{core.MIN, core.MAX, core.OPT}
	// Slice-local progress totals: a sharded worker only handles the rows
	// its shard owns, so that — not the whole grid — is what /progress and
	// -progress report against.
	owned := 0
	for _, n := range cfg.Procs {
		for _, s := range strategies {
			if cfg.owns(cfg.rowKey(ser, hpd, n, s)) {
				owned++
			}
		}
	}
	rowPh := cfg.Progress.Phase("experiments.rows")
	rowPh.AddTotal(int64(owned))
	canceled := func(cause error) (*Table, error) {
		cfg.Metrics.Counter("experiments.canceled").Add(1)
		return t, fmt.Errorf("experiments: runtime study: %w", cause)
	}
	for _, n := range cfg.Procs {
		for _, s := range strategies {
			key := cfg.rowKey(ser, hpd, n, s)
			if saved := []string(nil); cfg.rowRestore(key, &saved) {
				t.AddRow(saved)
				rowPh.Add(1)
				cfg.Metrics.Counter("experiments.rows_restored").Add(1)
				cfg.Log.Info("runtime row restored from journal",
					"processes", n, "strategy", s.String(), "key", key)
				continue
			}
			if cfg.RequireJournaled {
				if cfg.Missing != nil {
					// Degraded merge: keep the row's identity columns and
					// render every measurement as "!" instead of refusing.
					cfg.Missing.add(key)
					cfg.Metrics.Counter("experiments.rows_missing").Add(1)
					cells := []string{fmt.Sprint(n), s.String()}
					for len(cells) < len(t.Header) {
						cells = append(cells, "!")
					}
					t.AddRow(cells)
					rowPh.Add(1)
					continue
				}
				return nil, cfg.missingRow(key)
			}
			if !cfg.owns(key) {
				continue // another shard computes this row; the merge reassembles it
			}
			if cerr := runctl.Err(ctx); cerr != nil {
				return canceled(cerr)
			}
			rowSpan := cfg.Span.Child("runtime-row",
				obs.Int("processes", n),
				obs.String("strategy", s.String()))
			var total, max time.Duration
			var archs, evals, runs int
			var agg evalengine.Stats
			for i := 0; i < cfg.Apps; i++ {
				if cerr := runctl.Err(ctx); cerr != nil {
					// The in-progress row is discarded whole — a canceled
					// study never journals or renders a half-measured row.
					rowSpan.End()
					return canceled(cerr)
				}
				seed := cfg.Seed + int64(i) + int64(n)*1000003
				inst, err := taskgen.Generate(taskgen.DefaultConfig(seed, n, ser, hpd))
				if err != nil {
					rowSpan.End()
					return nil, err
				}
				appCtx, cancelApp := ctx, context.CancelFunc(func() {})
				if cfg.AppTimeout > 0 {
					parent := ctx
					if parent == nil {
						parent = context.Background()
					}
					appCtx, cancelApp = context.WithTimeout(parent, cfg.AppTimeout)
				}
				start := time.Now()
				res, err := core.RunContext(appCtx, inst.App, inst.Platform, core.Options{
					Goal:          inst.Goal,
					Strategy:      s,
					MappingParams: cfg.MappingParams,
					Workers:       cfg.RunWorkers,
					ParentSpan:    rowSpan,
					Metrics:       cfg.Metrics,
					Progress:      cfg.Progress,
					Log:           cfg.Log,
				})
				cancelApp()
				if err != nil {
					if errors.Is(err, context.DeadlineExceeded) && runctl.Err(ctx) == nil {
						cfg.Metrics.Counter("experiments.app_timeouts").Add(1)
						cfg.Log.Warn("application timed out, skipped",
							"seed", seed, "processes", n,
							"strategy", s.String(), "timeout", cfg.AppTimeout)
						continue
					}
					rowSpan.End()
					if errors.Is(err, runctl.ErrCanceled) {
						return canceled(err)
					}
					return nil, err
				}
				elapsed := time.Since(start)
				total += elapsed
				if elapsed > max {
					max = elapsed
				}
				archs += res.ArchsExplored
				evals += res.Evaluations
				agg.Add(res.EvalStats)
				runs++
			}
			rowSpan.SetAttr(obs.Int("runs", runs))
			rowSpan.End()
			rowPh.Add(1)
			cfg.Log.Info("runtime row done",
				"processes", n, "strategy", s.String(), "runs", runs,
				"mean", total/time.Duration(maxInt(runs, 1)),
				"span", rowSpan.ID())
			if runs == 0 {
				continue
			}
			cells := []string{
				fmt.Sprint(n),
				s.String(),
				(total / time.Duration(runs)).Round(time.Millisecond).String(),
				max.Round(time.Millisecond).String(),
				fmt.Sprintf("%.1f", float64(archs)/float64(runs)),
				fmt.Sprintf("%.0f", float64(evals)/float64(runs)),
				fmt.Sprintf("%.1f%%", agg.HitRate()*100),
				fmt.Sprintf("%.1f%%", agg.OptHitRate()*100),
				fmt.Sprint(agg.ScheduleBuilds),
				fmt.Sprintf("%d/%d", agg.SFPBuilds, agg.SFPHits),
				agg.ReExecTime.Round(time.Millisecond).String(),
				agg.SchedTime.Round(time.Millisecond).String(),
			}
			if err := cfg.rowDone(key, cells); err != nil {
				return nil, err
			}
			t.AddRow(cells)
		}
	}
	return t, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
