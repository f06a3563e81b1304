package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/execsim"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/taskgen"
	"repro/internal/ttp"
)

// SimulationStudy (experiment E14) measures, on OPT-designed synthetic
// systems, how the discrete-event execution simulator's makespans under
// adversarial within-budget fault patterns compare with the static
// analysis' worst-case bound: the mean and max of max-simulated/analyzed
// ratios, and how often a within-budget pattern misses a deadline. The
// paper's shared-slack accounting treats each node's recovery in
// isolation, so ratios slightly above 1 on multi-node systems quantify
// the cross-node coupling that accounting abstracts away (see the sched
// package comment); values ≤ 1 show where it is simply pessimistic.
func SimulationStudy(ctx context.Context, cfg Config, ser float64, iterations int) (*Table, error) {
	if iterations <= 0 {
		iterations = 200
	}
	models := []sched.SlackModel{sched.SlackShared, sched.SlackPerProcess}
	rows := make([]row[[]string], len(models))
	for m, model := range models {
		c := cfg
		c.Model = model
		rows[m] = row[[]string]{key: c.key("simulation", "ser=%g|iterations=%d", ser, iterations),
			run: func(ctx context.Context, span *obs.Span) ([]string, error) {
				return c.simulationRow(ctx, span, ser, iterations)
			}}
	}
	return figure(ctx, cfg, rows, func(res []rowResult[[]string]) *Table {
		t := NewTable(fmt.Sprintf("Simulation vs analysis (SER=%.0e, %d fault patterns per design)", ser, iterations),
			[]string{"slack model", "designs", "mean max/bound", "max max/bound", "deadline misses"})
		for m, r := range res {
			addCells(t, r, models[m].String())
		}
		return t
	})
}

// simulationRow designs every application of the batch with OPT under
// c.Model and replays each feasible design's within-budget fault
// patterns, reducing the campaigns in batch order.
func (c Config) simulationRow(ctx context.Context, span *obs.Span, ser float64, iterations int) ([]string, error) {
	type outcome struct {
		designed      bool
		ratio         float64
		misses, iters int
	}
	outs, err := forApps(ctx, c, span, taskgen.DefaultConfig(0, 0, ser, 25), func(ctx context.Context, a app) (outcome, error) {
		res, err := core.RunContext(ctx, a.inst.App, a.inst.Platform, c.options(a, core.OPT))
		if err != nil || !res.Feasible {
			return outcome{}, err
		}
		campaign := execsim.Campaign{
			Input: execsim.Input{
				App:     a.inst.App,
				Arch:    res.Arch,
				Mapping: res.Mapping,
				Ks:      res.Ks,
				Bus:     ttp.NewBus(len(res.Arch.Nodes), a.inst.Platform.Bus.SlotLen),
				Static:  res.Schedule,
			},
			Iterations:   iterations,
			Seed:         a.seed,
			WithinBudget: true,
		}
		cr, err := campaign.Run()
		if err != nil {
			return outcome{}, err
		}
		return outcome{true, cr.MaxMakespan / res.Schedule.Length, cr.DeadlineMisses, cr.Iterations}, nil
	})
	if err != nil {
		return nil, err
	}
	var (
		designed, missRuns, totalIters int
		sumRatio, maxRatio             float64
	)
	for _, o := range outs {
		if !o.designed {
			continue
		}
		designed++
		sumRatio += o.ratio
		if o.ratio > maxRatio {
			maxRatio = o.ratio
		}
		missRuns += o.misses
		totalIters += o.iters
	}
	if designed == 0 {
		return []string{c.Model.String(), "0", "-", "-", "-"}, nil
	}
	return []string{
		c.Model.String(),
		fmt.Sprint(designed),
		fmt.Sprintf("%.3f", sumRatio/float64(designed)),
		fmt.Sprintf("%.3f", maxRatio),
		fmt.Sprintf("%d/%d", missRuns, totalIters),
	}, nil
}
