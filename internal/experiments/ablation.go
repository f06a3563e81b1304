package experiments

import (
	"context"
	"fmt"

	"repro/internal/mapping"
	"repro/internal/obs"
	"repro/internal/redundancy"
	"repro/internal/sched"
	"repro/internal/sfp"
	"repro/internal/taskgen"
)

// AblationSlack compares the paper's shared recovery slack against the
// non-shared per-process baseline: acceptance rates at the given point
// under both models. Shared slack should accept at least as many
// applications.
func AblationSlack(ctx context.Context, cfg Config, pt Point) (*Table, error) {
	var names []string
	var rows []row[pointRates]
	for _, model := range []sched.SlackModel{sched.SlackShared, sched.SlackPerProcess} {
		c := cfg
		c.Model = model
		names = append(names, model.String())
		rows = append(rows, c.acceptanceRow(pt, false))
	}
	return variants(ctx, cfg, fmt.Sprintf("Ablation — recovery slack model (SER=%.0e, HPD=%g%%, ArC=%g)", pt.SER, pt.HPD, pt.ArC),
		"slack model", names, rows)
}

// AblationMapping compares the full tabu search against a greedy-only
// mapping (the tabu loop disabled after the constructive initial mapping):
// acceptance at the given point.
func AblationMapping(ctx context.Context, cfg Config, pt Point) (*Table, error) {
	greedy, tabu := cfg, cfg
	greedy.MappingParams = mapping.Params{MaxIterations: 1, MaxNoImprove: 1}
	tabu.MappingParams = mapping.DefaultParams()
	return variants(ctx, cfg, fmt.Sprintf("Ablation — mapping search (SER=%.0e, HPD=%g%%, ArC=%g)", pt.SER, pt.HPD, pt.ArC),
		"mapping", []string{"greedy initial only", "tabu search"},
		[]row[pointRates]{greedy.acceptanceRow(pt, false), tabu.acceptanceRow(pt, false)})
}

// AblationBus quantifies the cost of TDMA communication: acceptance with
// the generated slot length versus an idealized zero-latency bus (the
// degenerate end of the paper's "worst-case transmission time"
// abstraction). The idealized bus can only help, so its acceptance is an
// upper bound; the gap measures how much the slot-table timing matters at
// this workload scale.
func AblationBus(ctx context.Context, cfg Config, pt Point) (*Table, error) {
	return variants(ctx, cfg, fmt.Sprintf("Ablation — bus model (SER=%.0e, HPD=%g%%, ArC=%g)", pt.SER, pt.HPD, pt.ArC),
		"bus", []string{"TDMA slots", "instantaneous"},
		[]row[pointRates]{cfg.acceptanceRow(pt, false), cfg.acceptanceRow(pt, true)})
}

// gradientRow is the journal payload of one policy of the gradient
// ablation: its total re-executions over the instances where both
// policies reach the goal, and the number of those instances.
type gradientRow struct {
	Total     int `json:"total"`
	Instances int `json:"instances"`
}

// AblationGradient quantifies the value of the reliability-gradient
// guidance inside ReExecutionOpt (Section 6.3): over a batch of generated
// platforms with *mixed* hardening levels (node j at level j+1, the
// situation RedundancyOpt creates all the time), it compares the total
// number of re-executions Σk assigned by the gradient-guided greedy
// against a uniform baseline that increments every node's k in lockstep
// until the goal is met. The lockstep policy wastes re-executions on the
// highly hardened nodes; fewer re-executions mean less recovery slack in
// the schedule. Each policy is one row; both rows skip the instances
// where either policy cannot reach the goal.
func AblationGradient(ctx context.Context, cfg Config, ser float64) (*Table, error) {
	policies := []string{"gradient-guided (paper)", "uniform lockstep"}
	rows := make([]row[gradientRow], len(policies))
	for p, name := range policies {
		rows[p] = row[gradientRow]{key: cfg.key("gradient", "ser=%g|policy=%s", ser, name),
			run: func(ctx context.Context, span *obs.Span) (gradientRow, error) {
				ks, err := forApps(ctx, cfg, span, taskgen.DefaultConfig(0, 0, ser, 25), func(_ context.Context, a app) ([]int, error) {
					both, err := gradientKs(a.inst)
					if both == nil {
						return nil, err
					}
					return both[p], nil
				})
				if err != nil {
					return gradientRow{}, err
				}
				var r gradientRow
				for _, k := range ks {
					if k != nil {
						r.Total += sum(k)
						r.Instances++
					}
				}
				if r.Instances == 0 {
					return r, fmt.Errorf("experiments: no instance reached the goal")
				}
				return r, nil
			}}
	}
	return figure(ctx, cfg, rows, func(res []rowResult[gradientRow]) *Table {
		instances := "-"
		for _, r := range res {
			if r.state == rowDone {
				instances = fmt.Sprint(r.val.Instances)
			}
		}
		t := NewTable(fmt.Sprintf("Ablation — ReExecutionOpt guidance (SER=%.0e, %s instances)", ser, instances),
			[]string{"policy", "total re-executions", "avg per instance"})
		for p, r := range res {
			if r.state != rowDone {
				addCells(t, rowResult[[]string]{state: r.state}, policies[p])
				continue
			}
			t.AddRow([]string{policies[p], fmt.Sprint(r.val.Total), fmt.Sprintf("%.2f", float64(r.val.Total)/float64(r.val.Instances))})
		}
		return t
	})
}

// gradientKs returns the re-execution budgets the gradient-guided and the
// uniform lockstep policies assign on inst, processes round-robined over
// the platform's nodes with node j fixed at hardening level j+1 (capped at
// the top level): an asymmetric-reliability architecture. It returns nil
// when either policy cannot reach the goal.
func gradientKs(inst *taskgen.Instance) ([][]int, error) {
	probs := make([][]float64, len(inst.Platform.Nodes))
	for pid := 0; pid < inst.App.NumProcesses(); pid++ {
		j := pid % len(probs)
		versions := inst.Platform.Nodes[j].Versions
		probs[j] = append(probs[j], versions[min(j, len(versions)-1)].FailProb[pid])
	}
	analysis, err := sfp.NewAnalysis(probs, inst.App.EffectivePeriod(), sfp.DefaultMaxK)
	if err != nil {
		return nil, err
	}
	ceiling, err := inst.Goal.MaxSystemFailure(analysis.Period)
	if err != nil {
		return nil, err
	}
	g, ok := redundancy.ReExecutionOptAnalysis(nil, analysis, ceiling, nil)
	if !ok {
		return nil, nil
	}
	u, ok := uniformKs(analysis, inst.Goal)
	if !ok {
		return nil, nil
	}
	return [][]int{g, u}, nil
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
