package experiments

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/redundancy"
	"repro/internal/runctl"
	"repro/internal/sched"
	"repro/internal/sfp"
	"repro/internal/taskgen"
)

// AblationSlack compares the paper's shared recovery slack against the
// non-shared per-process baseline: OPT acceptance rates at the given
// point under both models. Shared slack should accept at least as many
// applications. Cancellation returns the completed rows with the typed
// error.
func AblationSlack(ctx context.Context, cfg Config, pt Point) (*Table, error) {
	t := NewTable(fmt.Sprintf("Ablation — recovery slack model (SER=%.0e, HPD=%g%%, ArC=%g)", pt.SER, pt.HPD, pt.ArC),
		[]string{"slack model", "MIN", "MAX", "OPT"})
	for _, model := range []sched.SlackModel{sched.SlackShared, sched.SlackPerProcess} {
		c := cfg
		c.Model = model
		r, err := Acceptance(ctx, c, pt)
		if err != nil {
			if errors.Is(err, runctl.ErrCanceled) {
				return t, err
			}
			return nil, err
		}
		t.AddRow([]string{
			model.String(),
			cell(r, core.MIN),
			cell(r, core.MAX),
			cell(r, core.OPT),
		})
	}
	return t, nil
}

// AblationMapping compares the full tabu search against a greedy-only
// mapping (the tabu loop disabled after the constructive initial mapping):
// OPT acceptance at the given point.
func AblationMapping(ctx context.Context, cfg Config, pt Point) (*Table, error) {
	t := NewTable(fmt.Sprintf("Ablation — mapping search (SER=%.0e, HPD=%g%%, ArC=%g)", pt.SER, pt.HPD, pt.ArC),
		[]string{"mapping", "MIN", "MAX", "OPT"})
	variants := []struct {
		name   string
		params mapping.Params
	}{
		{"greedy initial only", mapping.Params{MaxIterations: 1, MaxNoImprove: 1}},
		{"tabu search", mapping.DefaultParams()},
	}
	for _, v := range variants {
		c := cfg
		c.MappingParams = v.params
		r, err := Acceptance(ctx, c, pt)
		if err != nil {
			if errors.Is(err, runctl.ErrCanceled) {
				return t, err
			}
			return nil, err
		}
		t.AddRow([]string{
			v.name,
			cell(r, core.MIN),
			cell(r, core.MAX),
			cell(r, core.OPT),
		})
	}
	return t, nil
}

// AblationGradient quantifies the value of the reliability-gradient
// guidance inside ReExecutionOpt (Section 6.3): over a batch of generated
// platforms with *mixed* hardening levels (node j at level j+1, the
// situation RedundancyOpt creates all the time), it compares the total
// number of re-executions Σk assigned by the gradient-guided greedy
// against a uniform baseline that increments every node's k in lockstep
// until the goal is met. The lockstep policy wastes re-executions on the
// highly hardened nodes; fewer re-executions mean less recovery slack in
// the schedule.
func AblationGradient(ctx context.Context, cfg Config, ser float64) (*Table, error) {
	var guided, uniform, apps int
	for _, n := range cfg.Procs {
		for i := 0; i < cfg.Apps; i++ {
			if cerr := runctl.Err(ctx); cerr != nil {
				return nil, fmt.Errorf("experiments: gradient ablation: %w", cerr)
			}
			seed := cfg.Seed + int64(i) + int64(n)*1000003
			inst, err := taskgen.Generate(taskgen.DefaultConfig(seed, n, ser, 25))
			if err != nil {
				return nil, err
			}
			// Round-robin the processes over the platform's nodes, node j
			// fixed at hardening level j+1 (capped at the top level): an
			// asymmetric-reliability architecture.
			probs := make([][]float64, len(inst.Platform.Nodes))
			for pid := 0; pid < inst.App.NumProcesses(); pid++ {
				j := pid % len(probs)
				versions := inst.Platform.Nodes[j].Versions
				lv := j
				if lv >= len(versions) {
					lv = len(versions) - 1
				}
				probs[j] = append(probs[j], versions[lv].FailProb[pid])
			}
			analysis, err := sfp.NewAnalysis(probs, inst.App.EffectivePeriod(), sfp.DefaultMaxK)
			if err != nil {
				return nil, err
			}
			g, ok, err := redundancy.ReExecutionOptAnalysis(analysis, inst.Goal, nil)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue // goal unreachable: skip instance for both
			}
			u, ok := uniformKs(analysis, inst.Goal)
			if !ok {
				continue
			}
			guided += sum(g)
			uniform += sum(u)
			apps++
		}
	}
	if apps == 0 {
		return nil, fmt.Errorf("experiments: no instance reached the goal")
	}
	t := NewTable(fmt.Sprintf("Ablation — ReExecutionOpt guidance (SER=%.0e, %d instances)", ser, apps),
		[]string{"policy", "total re-executions", "avg per instance"})
	t.AddRow([]string{"gradient-guided (paper)", fmt.Sprint(guided), fmt.Sprintf("%.2f", float64(guided)/float64(apps))})
	t.AddRow([]string{"uniform lockstep", fmt.Sprint(uniform), fmt.Sprintf("%.2f", float64(uniform)/float64(apps))})
	return t, nil
}

// uniformKs increments every node's budget in lockstep.
func uniformKs(a *sfp.Analysis, goal sfp.Goal) ([]int, bool) {
	ks := make([]int, len(a.Nodes))
	for k := 0; ; k++ {
		for j := range ks {
			ks[j] = k
		}
		if a.MeetsGoal(ks, goal) {
			return ks, true
		}
		if k >= sfp.DefaultMaxK {
			return ks, false
		}
	}
}

func sum(xs []int) int {
	var s int
	for _, x := range xs {
		s += x
	}
	return s
}
