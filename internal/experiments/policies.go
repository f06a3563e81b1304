package experiments

import (
	"context"
	"fmt"

	"repro/internal/appmodel"
	"repro/internal/checkpoint"
	"repro/internal/evalengine"
	"repro/internal/mapping"
	"repro/internal/platform"
	"repro/internal/policyopt"
	"repro/internal/redundancy"
	"repro/internal/replication"
	"repro/internal/runctl"
	"repro/internal/taskgen"
	"repro/internal/ttp"
)

// PolicyComparison evaluates the three software fault-tolerance policies
// — the paper's re-execution, the checkpointing extension (χ = α =
// chiAlpha ms) and active replication of the most failure-exposed process
// — on the same mapped synthetic instances (two fastest node types at the
// middle hardening level, greedy mapping) and reports feasibility counts
// and mean worst-case schedule lengths (experiments E12/E13).
func PolicyComparison(ctx context.Context, cfg Config, ser float64, chiAlpha float64) (*Table, error) {
	results := map[string]*policyAgg{
		"re-execution":  {},
		"checkpointing": {},
		"replication":   {},
	}
	instances := 0
	for _, n := range cfg.Procs {
		for i := 0; i < cfg.Apps; i++ {
			if cerr := runctl.Err(ctx); cerr != nil {
				return nil, fmt.Errorf("experiments: policy comparison: %w", cerr)
			}
			inst, ar, m, err := policyInstance(cfg.Seed+int64(i)+int64(n)*1000003, n, ser)
			if err != nil {
				return nil, err
			}
			bus := ttp.NewBus(2, inst.Platform.Bus.SlotLen)
			instances++

			// Re-execution at the fixed levels.
			re, err := redundancy.Evaluate(redundancy.Problem{
				App: inst.App, Arch: ar, Mapping: m, Goal: inst.Goal, Bus: bus,
			}, ar.Levels)
			if err != nil {
				return nil, err
			}
			record(results["re-execution"], re.Feasible(), re.Schedule.Length)

			// Checkpointing. Its mean covers the reliable instances only.
			cp, err := policyopt.Evaluate(policyopt.Problem{
				App: inst.App, Arch: ar, Mapping: m, Goal: inst.Goal,
				Overheads: checkpoint.Overheads{Chi: chiAlpha, Alpha: chiAlpha},
				Bus:       bus,
			}, policyopt.NewAssignment(inst.App.NumProcesses(), policyopt.Checkpointing, nil))
			if err != nil {
				return nil, err
			}
			slCp := 0.0
			if cp.Reliable {
				slCp = cp.Schedule.Length
			}
			record(results["checkpointing"], cp.Feasible(), slCp)

			// Replication of the process with the largest p×t exposure.
			pid := mostExposed(inst, ar, m)
			other := 1 - m[pid]
			rp, err := policyopt.Evaluate(policyopt.Problem{
				App: inst.App, Arch: ar, Mapping: m, Goal: inst.Goal, Bus: bus,
			}, policyopt.NewAssignment(inst.App.NumProcesses(), policyopt.ReExecution,
				replication.Assignment{pid: {m[pid], other}}))
			if err != nil {
				return nil, err
			}
			record(results["replication"], rp.Feasible(), rp.Schedule.Length)
		}
	}
	t := NewTable(fmt.Sprintf("Policy comparison (SER=%.0e, χ=α=%g ms, %d instances)", ser, chiAlpha, instances),
		[]string{"policy", "feasible", "mean worst-case SL (ms)"})
	for _, name := range []string{"re-execution", "checkpointing", "replication"} {
		a := results[name]
		mean := "-"
		if a.count > 0 {
			mean = fmt.Sprintf("%.1f", a.sumSL/float64(a.count))
		}
		t.AddRow([]string{name, fmt.Sprintf("%d/%d", a.feasible, instances), mean})
	}
	return t, nil
}

// policyInstance generates one instance of the policy comparison: the
// two fastest node types at the middle hardening level and the greedy
// initial mapping.
func policyInstance(seed int64, n int, ser float64) (*taskgen.Instance, *platform.Architecture, []int, error) {
	inst, err := taskgen.Generate(taskgen.DefaultConfig(seed, n, ser, 25))
	if err != nil {
		return nil, nil, nil, err
	}
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
		return nil, nil, nil, err
	}
	return inst, ar, m, nil
}

// policyAgg accumulates per-policy feasibility and schedule statistics.
type policyAgg struct {
	feasible int
	sumSL    float64
	count    int
}

func record(a *policyAgg, feasible bool, sl float64) {
	if feasible {
		a.feasible++
	}
	if sl > 0 {
		a.sumSL += sl
		a.count++
	}
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
