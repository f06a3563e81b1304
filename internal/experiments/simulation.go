package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/execsim"
	"repro/internal/runctl"
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
	t := NewTable(fmt.Sprintf("Simulation vs analysis (SER=%.0e, %d fault patterns per design)", ser, iterations),
		[]string{"slack model", "designs", "mean max/bound", "max max/bound", "deadline misses"})
	for _, model := range []sched.SlackModel{sched.SlackShared, sched.SlackPerProcess} {
		var (
			designed   int
			sumRatio   float64
			maxRatio   float64
			missRuns   int
			totalIters int
		)
		for _, n := range cfg.Procs {
			for i := 0; i < cfg.Apps; i++ {
				if cerr := runctl.Err(ctx); cerr != nil {
					return t, fmt.Errorf("experiments: simulation study: %w", cerr)
				}
				seed := cfg.Seed + int64(i) + int64(n)*1000003
				inst, err := taskgen.Generate(taskgen.DefaultConfig(seed, n, ser, 25))
				if err != nil {
					return nil, err
				}
				res, err := core.RunContext(ctx, inst.App, inst.Platform, core.Options{
					Goal:          inst.Goal,
					Strategy:      core.OPT,
					Model:         model,
					MappingParams: cfg.MappingParams,
				})
				if err != nil {
					return nil, err
				}
				if !res.Feasible {
					continue
				}
				designed++
				campaign := execsim.Campaign{
					Input: execsim.Input{
						App:     inst.App,
						Arch:    res.Arch,
						Mapping: res.Mapping,
						Ks:      res.Ks,
						Bus:     ttp.NewBus(len(res.Arch.Nodes), inst.Platform.Bus.SlotLen),
						Static:  res.Schedule,
					},
					Iterations:   iterations,
					Seed:         seed,
					WithinBudget: true,
				}
				cr, err := campaign.Run()
				if err != nil {
					return nil, err
				}
				ratio := cr.MaxMakespan / res.Schedule.Length
				sumRatio += ratio
				if ratio > maxRatio {
					maxRatio = ratio
				}
				missRuns += cr.DeadlineMisses
				totalIters += cr.Iterations
			}
		}
		if designed == 0 {
			t.AddRow([]string{model.String(), "0", "-", "-", "-"})
			continue
		}
		t.AddRow([]string{
			model.String(),
			fmt.Sprint(designed),
			fmt.Sprintf("%.3f", sumRatio/float64(designed)),
			fmt.Sprintf("%.3f", maxRatio),
			fmt.Sprintf("%d/%d", missRuns, totalIters),
		})
	}
	return t, nil
}
