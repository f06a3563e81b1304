package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/runctl"
	"repro/internal/taskgen"
)

// AblationBus quantifies the cost of TDMA communication: OPT acceptance
// with the generated slot length versus an idealized zero-latency bus
// (the degenerate end of the paper's "worst-case transmission time"
// abstraction). The idealized bus can only help, so its acceptance is an
// upper bound; the gap measures how much the slot-table timing matters at
// this workload scale.
func AblationBus(ctx context.Context, cfg Config, pt Point) (*Table, error) {
	t := NewTable(fmt.Sprintf("Ablation — bus model (SER=%.0e, HPD=%g%%, ArC=%g)", pt.SER, pt.HPD, pt.ArC),
		[]string{"bus", "MIN", "MAX", "OPT"})
	for _, ideal := range []bool{false, true} {
		counts := map[core.Strategy]int{}
		total := 0
		for _, n := range cfg.Procs {
			for i := 0; i < cfg.Apps; i++ {
				if cerr := runctl.Err(ctx); cerr != nil {
					return t, fmt.Errorf("experiments: bus ablation: %w", cerr)
				}
				seed := cfg.Seed + int64(i) + int64(n)*1000003
				gcfg := taskgen.DefaultConfig(seed, n, pt.SER, pt.HPD)
				inst, err := taskgen.Generate(gcfg)
				if err != nil {
					return nil, err
				}
				if ideal {
					// Zero slot length makes core.Run skip the TDMA bus:
					// messages become instantaneous.
					inst.Platform.Bus = platform.BusSpec{}
				}
				total++
				for _, s := range []core.Strategy{core.MIN, core.MAX, core.OPT} {
					res, err := core.RunContext(ctx, inst.App, inst.Platform, core.Options{
						Goal:          inst.Goal,
						Strategy:      s,
						MaxCost:       pt.ArC,
						MappingParams: cfg.MappingParams,
					})
					if err != nil {
						return nil, err
					}
					if res.Feasible {
						counts[s]++
					}
				}
			}
		}
		name := "TDMA slots"
		if ideal {
			name = "instantaneous"
		}
		t.AddRow([]string{
			name,
			fmt.Sprintf("%.0f", 100*float64(counts[core.MIN])/float64(total)),
			fmt.Sprintf("%.0f", 100*float64(counts[core.MAX])/float64(total)),
			fmt.Sprintf("%.0f", 100*float64(counts[core.OPT])/float64(total)),
		})
	}
	return t, nil
}
