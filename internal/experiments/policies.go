package experiments

import (
	"context"
	"fmt"

	"repro/internal/appmodel"
	"repro/internal/checkpoint"
	"repro/internal/evalengine"
	"repro/internal/mapping"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/policyopt"
	"repro/internal/redundancy"
	"repro/internal/replication"
	"repro/internal/taskgen"
	"repro/internal/ttp"
)

// PolicyComparison evaluates the three software fault-tolerance policies
// — the paper's re-execution, the checkpointing extension (χ = α =
// chiAlpha ms) and active replication of the most failure-exposed process
// — on the same mapped synthetic instances (two fastest node types at the
// middle hardening level, greedy mapping) and reports feasibility counts
// and mean worst-case schedule lengths (experiments E12/E13). Each policy
// is one row.
func PolicyComparison(ctx context.Context, cfg Config, ser float64, chiAlpha float64) (*Table, error) {
	policies := []string{"re-execution", "checkpointing", "replication"}
	instances := cfg.Apps * len(cfg.Procs)
	rows := make([]row[[]string], len(policies))
	for p, name := range policies {
		rows[p] = row[[]string]{key: cfg.key("policies", "ser=%g|chi=%g|policy=%s", ser, chiAlpha, name),
			run: func(ctx context.Context, span *obs.Span) ([]string, error) {
				outs, err := forApps(ctx, cfg, span, taskgen.DefaultConfig(0, 0, ser, 25), func(_ context.Context, a app) (policyOutcome, error) {
					return evalPolicy(a.inst, name, chiAlpha)
				})
				if err != nil {
					return nil, err
				}
				feasible, covered, sumSL := 0, 0, 0.0
				for _, o := range outs {
					if o.feasible {
						feasible++
					}
					if o.sl > 0 {
						sumSL += o.sl
						covered++
					}
				}
				mean := "-"
				if covered > 0 {
					mean = fmt.Sprintf("%.1f", sumSL/float64(covered))
				}
				return []string{name, fmt.Sprintf("%d/%d", feasible, instances), mean}, nil
			}}
	}
	return figure(ctx, cfg, rows, func(res []rowResult[[]string]) *Table {
		t := NewTable(fmt.Sprintf("Policy comparison (SER=%.0e, χ=α=%g ms, %d instances)", ser, chiAlpha, instances),
			[]string{"policy", "feasible", "mean worst-case SL (ms)"})
		for p, r := range res {
			addCells(t, r, policies[p])
		}
		return t
	})
}

// policyOutcome is one policy's result on one instance: its feasibility
// and the worst-case schedule length its mean covers (0 = not covered).
type policyOutcome struct {
	feasible bool
	sl       float64
}

// evalPolicy evaluates the named policy of PolicyComparison on inst.
func evalPolicy(inst *taskgen.Instance, policy string, chiAlpha float64) (policyOutcome, error) {
	ar, m, err := policyInstance(inst)
	if err != nil {
		return policyOutcome{}, err
	}
	bus := ttp.NewBus(2, inst.Platform.Bus.SlotLen)
	switch policy {
	case "re-execution": // at the fixed levels
		re, err := redundancy.Evaluate(redundancy.Problem{
			App: inst.App, Arch: ar, Mapping: m, Goal: inst.Goal, Bus: bus,
		}, ar.Levels)
		if err != nil {
			return policyOutcome{}, err
		}
		return policyOutcome{re.Feasible(), re.Schedule.Length}, nil
	case "checkpointing": // its mean covers the reliable instances only
		cp, err := policyopt.Evaluate(policyopt.Problem{
			App: inst.App, Arch: ar, Mapping: m, Goal: inst.Goal,
			Overheads: checkpoint.Overheads{Chi: chiAlpha, Alpha: chiAlpha},
			Bus:       bus,
		}, policyopt.NewAssignment(inst.App.NumProcesses(), policyopt.Checkpointing, nil))
		if err != nil {
			return policyOutcome{}, err
		}
		o := policyOutcome{feasible: cp.Feasible()}
		if cp.Reliable {
			o.sl = cp.Schedule.Length
		}
		return o, nil
	}
	// Replication of the process with the largest p×t exposure.
	pid := mostExposed(inst, ar, m)
	rp, err := policyopt.Evaluate(policyopt.Problem{
		App: inst.App, Arch: ar, Mapping: m, Goal: inst.Goal, Bus: bus,
	}, policyopt.NewAssignment(inst.App.NumProcesses(), policyopt.ReExecution,
		replication.Assignment{pid: {m[pid], 1 - m[pid]}}))
	if err != nil {
		return policyOutcome{}, err
	}
	return policyOutcome{rp.Feasible(), rp.Schedule.Length}, nil
}

// policyInstance maps one instance of the policy comparison: the two
// fastest node types at the middle hardening level and the greedy
// initial mapping.
func policyInstance(inst *taskgen.Instance) (*platform.Architecture, []int, error) {
	ar := platform.NewArchitecture([]*platform.Node{
		&inst.Platform.Nodes[0], &inst.Platform.Nodes[1],
	})
	for j, nd := range ar.Nodes {
		ar.Levels[j] = min(nd.MinLevel()+1, nd.MaxLevel())
	}
	m, err := mapping.GreedyInitial(evalengine.New(redundancy.Problem{
		App:  inst.App,
		Arch: ar,
		Goal: inst.Goal,
		Bus:  ttp.NewBus(2, inst.Platform.Bus.SlotLen),
	}))
	if err != nil {
		return nil, nil, err
	}
	return ar, m, nil
}

// mostExposed returns the process with the largest p×t product on its
// mapped node — the best replication candidate.
func mostExposed(inst *taskgen.Instance, ar *platform.Architecture, m []int) appmodel.ProcID {
	best, bestScore := appmodel.ProcID(0), -1.0
	for pid := 0; pid < inst.App.NumProcesses(); pid++ {
		v := ar.Version(m[pid])
		score := v.FailProb[pid] * v.WCET[pid]
		if score > bestScore {
			best, bestScore = appmodel.ProcID(pid), score
		}
	}
	return best
}
