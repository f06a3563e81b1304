// Package mapping implements the MappingAlgorithm heuristic of Section
// 6.2: a tabu search over process-to-node mappings. At each iteration the
// processes on the critical path of the current worst-case schedule are
// candidates for re-mapping; recently moved processes are tabu, processes
// that have waited long are prioritized, and a move is accepted if it
// either beats the best-so-far solution (aspiration, even when tabu) or is
// the best available non-tabu move (diversification, even when worse than
// the current solution).
//
// Every candidate mapping is evaluated through the shared evaluation
// engine (evalengine.Evaluator.RedundancyOpt), which settles the hardening
// levels and re-execution counts for that mapping — "the change of the
// mapping immediately triggers the change of the hardening levels"
// (Section 6.1) — and memoizes revisited mappings, which tabu search
// produces constantly.
//
// Two cost functions are supported, as required by the design strategy of
// Fig. 5: ScheduleLength produces the shortest-possible worst-case
// schedule, and ArchitectureCost minimizes the architecture cost without
// impairing schedulability.
package mapping

import (
	"context"
	"fmt"
	"math"

	"repro/internal/appmodel"
	"repro/internal/evalengine"
	"repro/internal/obs"
	"repro/internal/redundancy"
	"repro/internal/runctl"
)

// CostFunction selects the objective of the mapping optimization.
type CostFunction int

const (
	// ScheduleLength minimizes the worst-case schedule length SL
	// (feasible solutions first).
	ScheduleLength CostFunction = iota
	// ArchitectureCost minimizes the architecture cost among feasible
	// solutions (schedule length breaks ties).
	ArchitectureCost
)

// String returns the cost function name.
func (cf CostFunction) String() string {
	switch cf {
	case ScheduleLength:
		return "schedule-length"
	case ArchitectureCost:
		return "architecture-cost"
	default:
		return fmt.Sprintf("CostFunction(%d)", int(cf))
	}
}

// Params tunes the tabu search.
type Params struct {
	// TabuTenure is the number of iterations a moved process stays tabu.
	TabuTenure int
	// MaxNoImprove stops the search after this many consecutive
	// iterations without improving the best solution.
	MaxNoImprove int
	// MaxIterations is a hard safety cap on total iterations.
	MaxIterations int
}

// DefaultParams returns the tuning used by the experimental evaluation.
func DefaultParams() Params {
	return Params{TabuTenure: 3, MaxNoImprove: 8, MaxIterations: 200}
}

func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.TabuTenure <= 0 {
		p.TabuTenure = d.TabuTenure
	}
	if p.MaxNoImprove <= 0 {
		p.MaxNoImprove = d.MaxNoImprove
	}
	if p.MaxIterations <= 0 {
		p.MaxIterations = d.MaxIterations
	}
	return p
}

// Result is the outcome of the mapping optimization: the best mapping
// found and its fully evaluated redundancy solution, schedule included.
type Result struct {
	Mapping  []int
	Solution *redundancy.Solution
	// Evaluations counts RedundancyOpt invocations, for the experiment
	// reports.
	Evaluations int
}

// objective is a lexicographic objective vector: smaller is better.
func objective(cf CostFunction, sol *redundancy.Solution) [3]float64 {
	feas := 1.0
	if sol.Feasible() {
		feas = 0
	}
	switch cf {
	case ArchitectureCost:
		return [3]float64{feas, sol.Cost, sol.Length}
	default:
		return [3]float64{feas, sol.Length, sol.Cost}
	}
}

func lessObj(a, b [3]float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// Optimize runs the tabu search through the given evaluation engine,
// whose bound problem supplies the application, architecture and goal
// (the problem's Mapping field is ignored). initial provides the starting
// mapping (nil lets the heuristic construct a greedy one). The returned
// solution may be infeasible if no feasible mapping was found — the
// caller (DesignStrategy) then grows the architecture.
//
// Optimize is not cancellable; long-running callers use OptimizeContext.
func Optimize(ev *evalengine.Evaluator, initial []int, cf CostFunction, params Params) (*Result, error) {
	return OptimizeContext(context.Background(), ev, initial, cf, params)
}

// OptimizeContext is Optimize with cooperative cancellation: the context
// is consulted between tabu iterations — never inside an evaluation, so
// the arithmetic stays bit-identical — and a done context stops the
// search at the next iteration boundary. The canceled search returns the
// best solution found so far (at minimum the fully evaluated initial
// mapping, never nil) together with an error wrapping runctl.ErrCanceled.
func OptimizeContext(ctx context.Context, ev *evalengine.Evaluator, initial []int, cf CostFunction, params Params) (*Result, error) {
	params = params.withDefaults()
	p := ev.Problem()
	n := p.App.NumProcesses()
	numNodes := len(p.Arch.Nodes)
	if numNodes == 0 {
		return nil, fmt.Errorf("mapping: architecture has no nodes")
	}

	// The whole search runs under one span (child of whatever scope the
	// caller installed on the evaluator), and the evaluator carries the
	// innermost open scope so RedundancyOpt cache misses nest correctly.
	parentSpan := ev.TraceSpan()
	span := parentSpan.Child("mapping.optimize",
		obs.String("cost_function", cf.String()),
		obs.Int("tabu_tenure", params.TabuTenure),
		obs.Int("max_no_improve", params.MaxNoImprove),
		obs.Int("processes", n),
		obs.Int("nodes", numNodes))
	ev.SetTraceSpan(span)
	defer func() {
		ev.SetTraceSpan(parentSpan)
		span.End()
	}()
	reg := ev.MetricsRegistry()
	iterCtr := reg.Counter("mapping.iterations")
	moveCtr := reg.Counter("mapping.moves")
	iterPh := ev.Progress().Phase("mapping.iterations")

	cur := make([]int, n)
	if initial != nil {
		if len(initial) != n {
			return nil, fmt.Errorf("mapping: initial mapping covers %d of %d processes", len(initial), n)
		}
		copy(cur, initial)
		for pid, j := range cur {
			if j < 0 || j >= numNodes {
				return nil, fmt.Errorf("mapping: initial mapping sends process %d to invalid node %d", pid, j)
			}
		}
	} else {
		var err error
		cur, err = GreedyInitial(ev)
		if err != nil {
			return nil, err
		}
	}

	evals := 0
	pred := p.App.Predecessors()
	evals++
	curSol, err := ev.RedundancyOpt(cur)
	if err != nil {
		return nil, err
	}
	best := &Result{Mapping: append([]int(nil), cur...), Solution: curSol}
	bestObj := objective(cf, curSol)
	// done attaches the best solution's schedule, which every Result
	// carries, and stamps the evaluation count.
	done := func() error {
		sol, err := withSchedule(ev, best.Mapping, best.Solution)
		if err != nil {
			return err
		}
		best.Solution = sol
		best.Evaluations = evals
		return nil
	}

	tabu := make([]int, n)    // iterations left in tabu state
	waiting := make([]int, n) // iterations since last move

	type move struct {
		pid  appmodel.ProcID
		node int
		sol  *redundancy.Solution
		obj  [3]float64
	}

	// The neighbourhood and the trial mapping are rebuilt in place every
	// iteration. The engine copies the mappings it keys on, so one trial
	// slice, restored after each move, serves the whole neighbourhood.
	var moves []move
	trial := make([]int, n)
	noImprove := 0
	for iter := 0; iter < params.MaxIterations && noImprove < params.MaxNoImprove; iter++ {
		// Cancellation is checked once per iteration — between evaluations,
		// never inside them — so a canceled search stops on an iteration
		// boundary with the deterministic best-so-far result in hand.
		if cerr := runctl.Err(ctx); cerr != nil {
			reg.Counter("mapping.canceled").Add(1)
			span.SetAttr(obs.Bool("canceled", true))
			if err := done(); err != nil {
				return nil, err
			}
			return best, fmt.Errorf("mapping: canceled at iteration %d: %w", iter, cerr)
		}
		if numNodes == 1 {
			break // nothing to move
		}
		// The critical path walks the current solution's schedule: one
		// rebuild per iteration, where the neighborhood below only needs
		// lengths. When the current solution is also the best one, the
		// Result shares the rebuilt schedule.
		full, err := withSchedule(ev, cur, curSol)
		if err != nil {
			return nil, err
		}
		if best.Solution == curSol {
			best.Solution = full
		}
		curSol = full
		cands := criticalPath(pred, cur, curSol)
		// The iteration's neighborhood, in the canonical order (critical
		// path × target nodes). Selection below scans the same order with
		// a strict-less comparator.
		moves = moves[:0]
		for _, pid := range cands {
			for j := 0; j < numNodes; j++ {
				if j != cur[pid] {
					moves = append(moves, move{pid: pid, node: j})
				}
			}
		}
		if len(moves) == 0 {
			break // no candidates (empty critical path)
		}
		evals += len(moves)
		iterCtr.Add(1)
		moveCtr.Add(int64(len(moves)))
		iterPh.Add(1)
		iterSpan := span.Child("iteration",
			obs.Int("iter", iter),
			obs.Int("critical_path", len(cands)),
			obs.Int("neighborhood", len(moves)))
		ev.SetTraceSpan(iterSpan)
		copy(trial, cur)
		for i := range moves {
			mv := &moves[i]
			trial[mv.pid] = mv.node
			mv.sol, err = ev.RedundancyOpt(trial)
			trial[mv.pid] = cur[mv.pid]
			if err != nil {
				break
			}
		}
		ev.SetTraceSpan(span)
		if err != nil {
			iterSpan.End()
			return nil, err
		}
		// Move ordering: objective first, then the waiting priority of
		// Section 6.2 (processes that have waited longest to be re-mapped
		// move first), then IDs for determinism.
		lessMove := func(a, b *move) bool {
			if a.obj != b.obj {
				return lessObj(a.obj, b.obj)
			}
			if waiting[a.pid] != waiting[b.pid] {
				return waiting[a.pid] > waiting[b.pid]
			}
			if a.pid != b.pid {
				return a.pid < b.pid
			}
			return a.node < b.node
		}
		var bestAny, bestNonTabu *move
		for i := range moves {
			mv := &moves[i]
			mv.obj = objective(cf, mv.sol)
			if bestAny == nil || lessMove(mv, bestAny) {
				bestAny = mv
			}
			if tabu[mv.pid] == 0 && (bestNonTabu == nil || lessMove(mv, bestNonTabu)) {
				bestNonTabu = mv
			}
		}
		// Rule (1): accept the best move, tabu or not, if it beats the
		// best-so-far. Rule (2): otherwise take the best non-tabu move,
		// even if it is worse than the current solution.
		var chosen *move
		if lessObj(bestAny.obj, bestObj) {
			chosen = bestAny
		} else if bestNonTabu != nil {
			chosen = bestNonTabu
		} else {
			chosen = bestAny // all candidates tabu: fall back
		}
		cur[chosen.pid] = chosen.node
		curSol = chosen.sol
		for pid := range tabu {
			if tabu[pid] > 0 {
				tabu[pid]--
			}
			waiting[pid]++
		}
		tabu[chosen.pid] = params.TabuTenure
		waiting[chosen.pid] = 0

		improved := lessObj(chosen.obj, bestObj)
		iterSpan.SetAttr(
			obs.Int("moved_process", int(chosen.pid)),
			obs.Int("to_node", chosen.node),
			obs.Bool("improved", improved))
		iterSpan.End()
		if improved {
			best = &Result{Mapping: append([]int(nil), cur...), Solution: curSol}
			bestObj = chosen.obj
			noImprove = 0
		} else {
			noImprove++
		}
	}
	if err := done(); err != nil {
		return nil, err
	}
	span.SetAttr(
		obs.Int("evaluations", evals),
		obs.Bool("feasible", best.Solution.Feasible()),
		obs.Float("schedule_length", best.Solution.Length),
		obs.Float("cost", best.Solution.Cost))
	return best, nil
}

// withSchedule returns sol with its full schedule attached: sol itself
// when it already carries one, otherwise a copy holding the schedule the
// engine rebuilds for it. The engine's solutions are shared, so they are
// copied rather than filled in.
func withSchedule(ev *evalengine.Evaluator, mapping []int, sol *redundancy.Solution) (*redundancy.Solution, error) {
	if sol.Schedule != nil {
		return sol, nil
	}
	s, err := ev.Schedule(mapping, sol)
	if err != nil {
		return nil, err
	}
	full := *sol
	full.Schedule = s
	return &full, nil
}

// criticalPath returns the processes on the chain that determines the
// worst-case schedule length: starting from the process with the largest
// worst-case finish, it walks backwards through whichever dependency
// (same-node predecessor in the schedule or incoming message) fixed each
// process's start time. pred is the application's predecessor adjacency,
// hoisted to the caller so the per-iteration walk does not rebuild it.
func criticalPath(pred [][]appmodel.Edge, mapping []int, sol *redundancy.Solution) []appmodel.ProcID {
	s := sol.Schedule
	n := len(s.Start)
	if n == 0 {
		return nil
	}
	// Same-node schedule predecessor.
	prevOnNode := make([]int, n)
	for i := range prevOnNode {
		prevOnNode[i] = -1
	}
	for _, order := range s.NodeOrder {
		for i := 1; i < len(order); i++ {
			prevOnNode[order[i]] = int(order[i-1])
		}
	}
	// Start from the worst finisher.
	cur := 0
	for pid := 1; pid < n; pid++ {
		if s.WorstFinish[pid] > s.WorstFinish[cur] {
			cur = pid
		}
	}
	const eps = 1e-9
	seen := make(map[appmodel.ProcID]bool)
	var path []appmodel.ProcID
	for cur >= 0 && !seen[appmodel.ProcID(cur)] {
		pid := appmodel.ProcID(cur)
		seen[pid] = true
		path = append(path, pid)
		if s.Start[pid] <= eps {
			break
		}
		next := -1
		// Message (or intra-node data) dependency that fixed the start?
		// Track the latest-arriving predecessor alongside: when the start
		// was fixed by worst-case/recovery timing rather than a fault-free
		// arrival, no edge matches exactly and the walk falls back to it.
		maxPred, maxArr := -1, math.Inf(-1)
		for _, e := range pred[pid] {
			arr := s.Finish[e.Src]
			if mapping[e.Src] != mapping[e.Dst] && !math.IsNaN(s.MsgEnd[e.ID]) {
				arr = s.MsgEnd[e.ID]
			}
			if math.Abs(arr-s.Start[pid]) <= eps {
				next = int(e.Src)
				break
			}
			if arr > maxArr {
				maxPred, maxArr = int(e.Src), arr
			}
		}
		// Otherwise the node was busy: follow the schedule predecessor,
		// or, first on its node, the latest-arriving predecessor — never
		// silently truncate the candidate set while dependencies remain.
		if next < 0 {
			next = prevOnNode[pid]
		}
		if next < 0 {
			next = maxPred
		}
		cur = next
	}
	return path
}

// GreedyInitial constructs a deterministic initial mapping for the
// evaluator's bound problem: processes are taken in topological order and
// each is placed on the node that yields the earliest estimated finish at
// minimum hardening (a HEFT-style seed).
func GreedyInitial(ev *evalengine.Evaluator) ([]int, error) {
	defer ev.TraceSpan().Child("greedy-initial").End()
	p := ev.Problem()
	app := p.App
	order, err := app.TopoOrder()
	if err != nil {
		return nil, err
	}
	numNodes := len(p.Arch.Nodes)
	mapping := make([]int, app.NumProcesses())
	avail := make([]float64, numNodes)
	finish := make([]float64, app.NumProcesses())
	pred := app.Predecessors()
	for _, pid := range order {
		bestJ, bestF := -1, math.Inf(1)
		for j := 0; j < numNodes; j++ {
			v := p.Arch.Nodes[j].Version(p.Arch.Nodes[j].MinLevel())
			ready := avail[j]
			for _, e := range pred[pid] {
				arr := finish[e.Src]
				if mapping[e.Src] != j {
					arr += 1 // nominal one-slot transfer penalty
				}
				if arr > ready {
					ready = arr
				}
			}
			f := ready + v.WCET[pid]
			if f < bestF {
				bestJ, bestF = j, f
			}
		}
		mapping[pid] = bestJ
		finish[pid] = bestF
		avail[bestJ] = bestF
	}
	return mapping, nil
}
