// Package multirate extends the framework to applications whose task
// graphs have different activation periods. The paper evaluates a single
// application period T (the SFP condition raises the per-iteration
// survival probability to τ/T); real automotive systems like the CC run
// control loops at several rates. This extension unrolls every graph over
// the hyperperiod — graph G with period T_g contributes H/T_g jobs, the
// r-th released at r·T_g with absolute deadline r·T_g + D_g — schedules
// the job set with release times, and runs the SFP analysis over the
// hyperperiod: each job is one execution of its process, so the per-node
// f-fault combinatorics of the paper apply unchanged with jobs in place
// of processes and τ/H iterations per hour.
package multirate

import (
	"fmt"
	"math"

	"repro/internal/appmodel"
	"repro/internal/platform"
	"repro/internal/redundancy"
	"repro/internal/sched"
	"repro/internal/sfp"
)

// Spec is a multi-rate application: the base application plus one period
// per graph.
type Spec struct {
	App *appmodel.Application
	// Periods[gi] is the activation period of graph gi in milliseconds.
	Periods []float64
}

// Validate checks the spec: one positive period per graph, each no
// smaller than its graph's deadline (a job must complete before its next
// release in this non-overlapping model).
func (s *Spec) Validate() error {
	if s.App == nil {
		return fmt.Errorf("multirate: nil application")
	}
	if err := s.App.Validate(); err != nil {
		return err
	}
	if len(s.Periods) != len(s.App.Graphs) {
		return fmt.Errorf("multirate: %d periods for %d graphs", len(s.Periods), len(s.App.Graphs))
	}
	for gi, T := range s.Periods {
		if T <= 0 {
			return fmt.Errorf("multirate: graph %d has non-positive period %v", gi, T)
		}
		if s.App.Graphs[gi].Deadline > T {
			return fmt.Errorf("multirate: graph %d deadline %v exceeds its period %v",
				gi, s.App.Graphs[gi].Deadline, T)
		}
	}
	if _, err := s.Hyperperiod(); err != nil {
		return err
	}
	return nil
}

// Hyperperiod returns the least common multiple of the periods. Periods
// are converted to integer microseconds; fractional microseconds are
// rejected.
func (s *Spec) Hyperperiod() (float64, error) {
	if len(s.Periods) == 0 {
		return 0, fmt.Errorf("multirate: no periods")
	}
	lcm := int64(1)
	for gi, T := range s.Periods {
		us := int64(math.Round(T * 1000))
		if us <= 0 || math.Abs(float64(us)-T*1000) > 1e-6 {
			return 0, fmt.Errorf("multirate: graph %d period %v ms is not a whole number of microseconds", gi, T)
		}
		g := gcd(lcm, us)
		lcm = lcm / g * us
		if lcm > int64(1)<<40 { // ≈ 12 days in µs: runaway hyperperiod
			return 0, fmt.Errorf("multirate: hyperperiod overflow (periods too incommensurate)")
		}
	}
	return float64(lcm) / 1000, nil
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Unrolled is the job set of one hyperperiod.
type Unrolled struct {
	// App is the unrolled application: one graph per (graph, instance)
	// pair, with absolute deadlines.
	App *appmodel.Application
	// Release[j] is the release time of job j.
	Release []float64
	// JobOf[j] is the original process of job j.
	JobOf []appmodel.ProcID
	// Hyperperiod is H in milliseconds.
	Hyperperiod float64
}

// Unroll expands the spec over one hyperperiod.
func Unroll(s *Spec) (*Unrolled, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	H, err := s.Hyperperiod()
	if err != nil {
		return nil, err
	}
	src := s.App
	out := &appmodel.Application{
		Name:   src.Name + "+hyperperiod",
		Period: H,
	}
	u := &Unrolled{App: out, Hyperperiod: H}
	for gi := range src.Graphs {
		g := &src.Graphs[gi]
		T := s.Periods[gi]
		instances := int(math.Round(H / T))
		for r := 0; r < instances; r++ {
			release := float64(r) * T
			newGraph := appmodel.Graph{
				Name:     fmt.Sprintf("%s#%d", g.Name, r),
				Deadline: release + g.Deadline,
			}
			// Clone processes.
			local := make(map[appmodel.ProcID]appmodel.ProcID, len(g.Procs))
			for _, pid := range g.Procs {
				id := appmodel.ProcID(len(out.Procs))
				out.Procs = append(out.Procs, appmodel.Process{
					ID:   id,
					Name: fmt.Sprintf("%s#%d", src.Procs[pid].Name, r),
					Mu:   src.Procs[pid].Mu,
				})
				u.Release = append(u.Release, release)
				u.JobOf = append(u.JobOf, pid)
				local[pid] = id
				newGraph.Procs = append(newGraph.Procs, id)
			}
			// Clone edges.
			for _, eid := range g.Edges {
				e := src.Edges[eid]
				id := appmodel.EdgeID(len(out.Edges))
				out.Edges = append(out.Edges, appmodel.Edge{
					ID:   id,
					Name: fmt.Sprintf("%s#%d", e.Name, r),
					Src:  local[e.Src],
					Dst:  local[e.Dst],
					Size: e.Size,
				})
				newGraph.Edges = append(newGraph.Edges, id)
			}
			out.Graphs = append(out.Graphs, newGraph)
		}
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("multirate: unrolled application invalid: %w", err)
	}
	return u, nil
}

// Solution is one evaluated multi-rate deployment.
type Solution struct {
	Unrolled *Unrolled
	// Ks are the per-node re-execution budgets per hyperperiod.
	Ks []int
	// Schedule covers the whole hyperperiod (jobs at their releases).
	Schedule    *sched.Schedule
	Reliable    bool
	Schedulable bool
}

// Feasible reports whether the deployment is reliable and schedulable.
func (s *Solution) Feasible() bool { return s != nil && s.Reliable && s.Schedulable }

// Evaluate analyses and schedules a multi-rate deployment: mapping binds
// the *original* processes to architecture nodes (all jobs of a process
// run on its node, as a static cyclic executive requires).
func Evaluate(s *Spec, ar *platform.Architecture, mapping []int, goal sfp.Goal, bus sched.Bus, maxK int) (*Solution, error) {
	if maxK <= 0 {
		maxK = sfp.DefaultMaxK
	}
	u, err := Unroll(s)
	if err != nil {
		return nil, err
	}
	if len(mapping) != s.App.NumProcesses() {
		return nil, fmt.Errorf("multirate: mapping covers %d of %d processes", len(mapping), s.App.NumProcesses())
	}
	jobMapping := make([]int, u.App.NumProcesses())
	for j, orig := range u.JobOf {
		m := mapping[orig]
		if m < 0 || m >= len(ar.Nodes) {
			return nil, fmt.Errorf("multirate: process %d mapped to invalid node %d", orig, m)
		}
		jobMapping[j] = m
	}

	// SFP over the hyperperiod: every job is one execution.
	nodeProbs := make([][]float64, len(ar.Nodes))
	for j, orig := range u.JobOf {
		v := ar.Version(jobMapping[j])
		if v == nil {
			return nil, fmt.Errorf("multirate: node %d has no selected version", jobMapping[j])
		}
		nodeProbs[jobMapping[j]] = append(nodeProbs[jobMapping[j]], v.FailProb[orig])
	}
	analysis, err := sfp.NewAnalysis(nodeProbs, u.Hyperperiod, maxK)
	if err != nil {
		return nil, err
	}
	ceiling, err := goal.MaxSystemFailure(analysis.Period)
	if err != nil {
		return nil, err
	}
	ks, reliable := redundancy.ReExecutionOptAnalysis(nil, analysis, ceiling, nil)

	// Schedule the job set with releases; the scheduler needs WCET and
	// failure tables indexed by job ID.
	jobArch, err := ar.View(u.JobOf)
	if err != nil {
		return nil, err
	}
	schedule, err := sched.Build(sched.Input{
		App:     u.App,
		Arch:    jobArch,
		Mapping: jobMapping,
		Ks:      ks,
		Bus:     bus,
		Release: u.Release,
	})
	if err != nil {
		return nil, err
	}
	return &Solution{
		Unrolled:    u,
		Ks:          ks,
		Schedule:    schedule,
		Reliable:    reliable,
		Schedulable: schedule.Schedulable(u.App),
	}, nil
}
