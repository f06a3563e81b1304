package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/evalengine"
	"repro/internal/obs"
	"repro/internal/taskgen"
)

// rowKey is the journal key of one runtime-study row.
func (c Config) rowKey(ser, hpd float64, n int, s core.Strategy) string {
	return c.key("runtime", "ser=%g|hpd=%g|n=%d|strategy=%s", ser, hpd, n, s)
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
// Rows are journaled as their rendered cells, so a resumed study replays
// them verbatim. A timed-out application (cfg.AppTimeout) is left out of
// its row's means; a row whose applications all time out is journaled
// empty and renders as nothing. Rows another shard owns, or that
// cancellation never reached, render as nothing either.
func RuntimeStudy(ctx context.Context, cfg Config, ser, hpd float64) (*Table, error) {
	var rows []row[[]string]
	var ids [][]string
	for _, n := range cfg.Procs {
		for _, s := range strategies {
			rows = append(rows, cfg.runtimeRow(ser, hpd, n, s))
			ids = append(ids, []string{fmt.Sprint(n), s.String()})
		}
	}
	return figure(ctx, cfg, rows, func(res []rowResult[[]string]) *Table {
		t := NewTable(fmt.Sprintf("Strategy runtime (SER=%.0e, HPD=%g%%, %d apps per size)", ser, hpd, cfg.Apps),
			[]string{"processes", "strategy", "mean", "max", "mean archs", "mean evals",
				"cache hit", "opt hit", "sched builds", "sfp built/reused", "reexec", "sched"})
		for i, r := range res {
			if r.state != rowAbsent {
				addCells(t, r, ids[i]...)
			}
		}
		return t
	})
}

// runtimeRow is the row of strategy s on the applications of size n. The
// applications run one at a time, so each run's wall time is its own. A
// private registry turns on the engine's layer timers for the reexec and
// sched columns when the configuration has none.
func (c Config) runtimeRow(ser, hpd float64, n int, s core.Strategy) row[[]string] {
	return row[[]string]{key: c.rowKey(ser, hpd, n, s), run: func(ctx context.Context, span *obs.Span) ([]string, error) {
		b := c
		b.Procs, b.Workers = []int{n}, 1
		if b.Metrics == nil {
			b.Metrics = obs.NewRegistry()
		}
		type run struct {
			ok           bool
			elapsed      time.Duration
			archs, evals int
			stats        evalengine.Stats
		}
		runs, err := forApps(ctx, b, span, taskgen.DefaultConfig(0, 0, ser, hpd), func(ctx context.Context, a app) (run, error) {
			start := time.Now()
			res, err := core.RunContext(ctx, a.inst.App, a.inst.Platform, b.options(a, s))
			if err != nil {
				return run{}, err
			}
			return run{true, time.Since(start), res.ArchsExplored, res.Evaluations, res.EvalStats}, nil
		})
		if err != nil {
			return nil, err
		}
		var total, max time.Duration
		var archs, evals, done int
		var agg evalengine.Stats
		for _, r := range runs {
			if !r.ok {
				continue
			}
			total += r.elapsed
			if r.elapsed > max {
				max = r.elapsed
			}
			archs += r.archs
			evals += r.evals
			agg.Add(r.stats)
			done++
		}
		span.SetAttr(obs.Int("runs", done))
		if done == 0 {
			return nil, nil
		}
		return []string{
			fmt.Sprint(n),
			s.String(),
			(total / time.Duration(done)).Round(time.Millisecond).String(),
			max.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1f", float64(archs)/float64(done)),
			fmt.Sprintf("%.0f", float64(evals)/float64(done)),
			fmt.Sprintf("%.1f%%", agg.HitRate()*100),
			fmt.Sprintf("%.1f%%", agg.OptHitRate()*100),
			fmt.Sprint(agg.ScheduleBuilds),
			fmt.Sprintf("%d/%d", agg.SFPBuilds, agg.SFPHits),
			agg.ReExecTime.Round(time.Microsecond).String(),
			agg.SchedTime.Round(time.Microsecond).String(),
		}, nil
	}}
}
