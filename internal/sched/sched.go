// Package sched implements the off-line static cyclic scheduling strategy
// of Section 6.4: a list scheduler with partial-critical-path priorities
// that places processes on their mapped computation nodes and messages in
// TDMA bus slots, then accounts for transient-fault recovery with
// "recovery slack".
//
// # Recovery slack models
//
// After each process P_i on node N_j the paper assigns a recovery slack of
// (t_ijh + μ) × k_j, and "the slack is shared between processes in order
// to reduce the time allocated for recovering from faults". Concretely, in
// the shared model the worst-case completion of P_i is its fault-free
// finish plus k_j × max(t + μ) over the processes scheduled on N_j up to
// and including P_i: any of the node's k_j tolerated faults re-executes
// one of those processes, and each re-execution costs at most the largest
// (t + μ) among them. This model reproduces the paper's worst-case
// arithmetic exactly — e.g. in Fig. 3 both N1^2 with k = 2 (100 + 2×120)
// and N1^3 with k = 1 (160 + 180) complete "exactly at the same time"
// 340 ms, and the Fig. 4 verdicts (a, e schedulable; b, c, d not) follow.
//
// The per-process model (SlackPerProcess) is the classical non-shared
// alternative in which every process reserves its own k_j re-executions
// and delays propagate along the schedule; it is strictly more
// pessimistic and serves as the ablation baseline quantifying the value of
// slack sharing.
package sched

import (
	"fmt"
	"math"

	"repro/internal/appmodel"
	"repro/internal/platform"
)

// Bus abstracts the communication medium used for cross-node messages; it
// is implemented by *ttp.Bus and ttp.InstantBus.
type Bus interface {
	// Schedule books the earliest transmission window for a message from
	// srcNode ready at the given time and returns it.
	Schedule(srcNode int, ready float64) (start, end float64)
	// Reset clears all bookings.
	Reset()
}

// SlackModel selects how re-execution recovery time is accounted for.
type SlackModel int

const (
	// SlackShared is the paper's model: the processes of a node share a
	// recovery slack sized k_j × max(t + μ); see the package comment.
	SlackShared SlackModel = iota
	// SlackPerProcess reserves k_j re-executions for every process
	// individually and propagates the delays; the non-shared ablation
	// baseline.
	SlackPerProcess
)

// String returns the model name.
func (m SlackModel) String() string {
	switch m {
	case SlackShared:
		return "shared"
	case SlackPerProcess:
		return "per-process"
	default:
		return fmt.Sprintf("SlackModel(%d)", int(m))
	}
}

// Input bundles everything the scheduler needs.
type Input struct {
	App *appmodel.Application
	// Arch supplies the selected h-version (WCETs) of each node.
	Arch *platform.Architecture
	// Mapping[i] is the architecture node index process i runs on.
	Mapping []int
	// Ks[j] is the number of re-executions k_j provided on node j.
	Ks []int
	// Bus carries cross-node messages. If nil, transmission is
	// instantaneous.
	Bus Bus
	// Model selects the recovery slack accounting; zero value is the
	// paper's shared model.
	Model SlackModel
	// ExtraExec, when non-nil, adds a per-process execution-time
	// surcharge to the mapped WCET (used by the checkpointing extension
	// for checkpoint-saving and error-detection overheads). Indexed by
	// ProcID.
	ExtraExec []float64
	// Recovery, when non-nil, overrides the per-fault recovery cost of
	// each process (default: WCET + μ, a full re-execution; the
	// checkpointing extension passes one segment plus μ). Indexed by
	// ProcID.
	Recovery []float64
	// Release, when non-nil, gives each process an earliest start time
	// (used by the multi-rate extension, where graph instances are
	// released throughout the hyperperiod). Indexed by ProcID.
	Release []float64
}

// Schedule is the result of list scheduling: fault-free start/finish times
// per process, worst-case finish times including recovery slack, message
// transmission windows, and the derived schedulability verdict.
type Schedule struct {
	// Start and Finish are the fault-free execution windows, indexed by
	// ProcID.
	Start, Finish []float64
	// WorstFinish is the worst-case completion including re-execution
	// recovery, indexed by ProcID. Deadlines are checked against it.
	WorstFinish []float64
	// MsgStart and MsgEnd are the bus windows of cross-node messages,
	// indexed by EdgeID; both are NaN for intra-node edges.
	MsgStart, MsgEnd []float64
	// NodeOrder[j] lists the processes of node j in execution order.
	NodeOrder [][]appmodel.ProcID
	// Length is the worst-case schedule length SL: the largest
	// WorstFinish.
	Length float64
}

// Validate checks the input for structural consistency.
func (in *Input) Validate() error {
	if in.App == nil || in.Arch == nil {
		return fmt.Errorf("sched: nil application or architecture")
	}
	n := in.App.NumProcesses()
	if len(in.Mapping) != n {
		return fmt.Errorf("sched: mapping covers %d of %d processes", len(in.Mapping), n)
	}
	for pid, j := range in.Mapping {
		if j < 0 || j >= len(in.Arch.Nodes) {
			return fmt.Errorf("sched: process %d mapped to invalid node %d", pid, j)
		}
	}
	if len(in.Ks) != len(in.Arch.Nodes) {
		return fmt.Errorf("sched: ks covers %d of %d nodes", len(in.Ks), len(in.Arch.Nodes))
	}
	for j, k := range in.Ks {
		if k < 0 {
			return fmt.Errorf("sched: negative k on node %d", j)
		}
	}
	for j := range in.Arch.Nodes {
		if in.Arch.Version(j) == nil {
			return fmt.Errorf("sched: node %d has no version at level %d", j, in.Arch.Levels[j])
		}
	}
	if in.ExtraExec != nil && len(in.ExtraExec) != n {
		return fmt.Errorf("sched: ExtraExec covers %d of %d processes", len(in.ExtraExec), n)
	}
	if in.Recovery != nil && len(in.Recovery) != n {
		return fmt.Errorf("sched: Recovery covers %d of %d processes", len(in.Recovery), n)
	}
	for pid, x := range in.ExtraExec {
		if x < 0 {
			return fmt.Errorf("sched: negative ExtraExec for process %d", pid)
		}
	}
	for pid, r := range in.Recovery {
		if r < 0 {
			return fmt.Errorf("sched: negative Recovery for process %d", pid)
		}
	}
	if in.Release != nil && len(in.Release) != n {
		return fmt.Errorf("sched: Release covers %d of %d processes", len(in.Release), n)
	}
	for pid, r := range in.Release {
		if r < 0 {
			return fmt.Errorf("sched: negative Release for process %d", pid)
		}
	}
	return nil
}

// Workspace caches per-application adjacency (predecessors, successors,
// topological order, graph deadlines) and reuses the scheduler's scratch
// buffers across builds, so evaluation-heavy callers (package evalengine)
// stop paying the per-build allocation cost: a Probe on a workspace that
// has grown to the application allocates nothing. The zero value is ready
// to use. A Workspace is bound to one application at a time and assumes
// the application is not mutated while bound; it is not safe for
// concurrent use.
type Workspace struct {
	app      *appmodel.Application
	pred     [][]appmodel.Edge
	succ     [][]appmodel.Edge
	topo     []appmodel.ProcID
	deadline []float64 // per process: the deadline of its graph

	wcet, prio, arrival, nodeAvail, maxRec []float64
	unscheduled                            []int
	ready                                  []appmodel.ProcID
	vers                                   []*platform.HVersion // per-node selected version, hoisted per build
}

// bind points the workspace at app, recomputing the cached adjacency when
// the application changed since the last call.
func (ws *Workspace) bind(app *appmodel.Application) error {
	if ws.app == app {
		return nil
	}
	topo, err := app.TopoOrder()
	if err != nil {
		return err
	}
	ws.app = app
	ws.topo = topo
	ws.pred = app.Predecessors()
	ws.succ = app.Successors()
	ws.deadline = make([]float64, app.NumProcesses())
	for pid, g := range app.GraphOf() {
		ws.deadline[pid] = app.Graphs[g].Deadline
	}
	return nil
}

// scratch returns buf resized to n elements, all zero, growing the
// backing array only when needed.
func scratch[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	clear(*buf)
	return *buf
}

// Build runs the list scheduler and returns the schedule. The application
// and architecture are not modified.
func Build(in Input) (*Schedule, error) {
	return BuildInto(in, nil)
}

// BuildInto is Build with reusable scratch buffers: a non-nil Workspace
// amortizes the adjacency computation and the scheduler's temporary
// allocations across calls. The returned Schedule is always freshly
// allocated and independent of the workspace. BuildInto(in, nil) is
// exactly Build(in).
func BuildInto(in Input, ws *Workspace) (*Schedule, error) {
	s := &Schedule{}
	if _, _, err := buildWith(in, ws, s); err != nil {
		return nil, err
	}
	return s, nil
}

// Probe runs the list scheduler of BuildInto and returns only the
// worst-case schedule length and the schedulability verdict, each
// bit-identical to BuildInto's Schedule.Length and Schedule.Schedulable.
// It writes no schedule: the verdict is taken as each process commits, and
// once the workspace has grown to the application a probe allocates
// nothing.
func Probe(in Input, ws *Workspace) (length float64, schedulable bool, err error) {
	return buildWith(in, ws, nil)
}

// buildWith is the one list scheduler. It fills s when s is non-nil; a
// probe (s == nil) keeps only the length and the verdict.
func buildWith(in Input, ws *Workspace, s *Schedule) (length float64, schedulable bool, err error) {
	if err := in.Validate(); err != nil {
		return 0, false, err
	}
	if ws == nil {
		ws = &Workspace{}
	}
	app := in.App
	if err := ws.bind(app); err != nil {
		return 0, false, err
	}
	n := app.NumProcesses()
	// Hoist the per-node version lookup (a scan over the node's version
	// list) out of the per-process loop: m lookups instead of n.
	m := len(in.Arch.Nodes)
	vers := scratch(&ws.vers, m)
	for j := range vers {
		vers[j] = in.Arch.Version(j)
	}
	wcet := scratch(&ws.wcet, n) // t_ijh of each process on its mapped node
	for pid := 0; pid < n; pid++ {
		wcet[pid] = vers[in.Mapping[pid]].WCET[pid]
		if in.ExtraExec != nil {
			wcet[pid] += in.ExtraExec[pid]
		}
	}
	// Partial-critical-path priorities: longest remaining chain where
	// processes weigh their mapped WCET and cross-node edges weigh one
	// bus slot. Same recurrence as appmodel.CriticalPathLengths, run over
	// the cached topological order and successor lists.
	slotEst := busSlotEstimate(in)
	prio := scratch(&ws.prio, n)
	for i := len(ws.topo) - 1; i >= 0; i-- {
		p := ws.topo[i]
		best := 0.0
		for _, e := range ws.succ[p] {
			w := 0.0
			if in.Mapping[e.Src] != in.Mapping[e.Dst] {
				w = slotEst
			}
			if v := w + prio[e.Dst]; v > best {
				best = v
			}
		}
		prio[p] = wcet[p] + best
	}

	bus := in.Bus
	if bus != nil {
		bus.Reset()
	}

	if s != nil {
		// The three per-process and two per-edge arrays share one float
		// buffer, every message window NaN; NodeOrder gets one spine with
		// room for the processes mapped on each node.
		ne := len(app.Edges)
		fbuf := make([]float64, 3*n+2*ne)
		msg := fbuf[3*n:]
		for i := range msg {
			msg[i] = math.NaN()
		}
		s.Start = fbuf[0:n:n]
		s.Finish = fbuf[n : 2*n : 2*n]
		s.WorstFinish = fbuf[2*n : 3*n : 3*n]
		s.MsgStart = msg[0:ne:ne]
		s.MsgEnd = msg[ne : 2*ne : 2*ne]
		counts := make([]int, m)
		for _, j := range in.Mapping {
			counts[j]++
		}
		spine := make([]appmodel.ProcID, n)
		s.NodeOrder = make([][]appmodel.ProcID, m)
		for j, off := 0, 0; j < m; j++ {
			s.NodeOrder[j] = spine[off : off : off+counts[j]]
			off += counts[j]
		}
	}

	succ := ws.succ
	unscheduled := scratch(&ws.unscheduled, n) // remaining predecessor count
	for pid := 0; pid < n; pid++ {
		unscheduled[pid] = len(ws.pred[pid])
	}
	// ready is a queue over ws.ready[head:]; processes enter when their
	// last predecessor is scheduled and the best entry is popped each
	// iteration.
	ready := ws.ready[:0]
	head := 0
	for pid := 0; pid < n; pid++ {
		if unscheduled[pid] == 0 {
			ready = append(ready, appmodel.ProcID(pid))
		}
	}

	nodeAvail := scratch(&ws.nodeAvail, m)
	// maxRec[j] is the running max of (t + μ) over the processes already
	// scheduled on node j (the shared slack quantum).
	maxRec := scratch(&ws.maxRec, m)
	// arrival[pid] is the time all inputs of pid are available at its
	// node (fault-free in the shared model; worst-case in the
	// per-process model).
	arrival := scratch(&ws.arrival, n)

	// Graph deadlines: the EDF tie-break in release mode and the verdict.
	deadline := ws.deadline

	schedulable = true
	scheduled := 0
	for head < len(ready) {
		// Select the next process to commit. The comparators below are
		// strict total orders (the final tie-break is the process ID), so
		// the winner is unique and a linear scan picks exactly the process
		// a full sort would put first.
		best := head
		if in.Release == nil {
			// Highest priority first; ties by ID for determinism.
			for i := head + 1; i < len(ready); i++ {
				a, b := ready[i], ready[best]
				if prio[a] > prio[b] || (prio[a] == prio[b] && a < b) {
					best = i
				}
			}
		} else {
			// With release times, committing a high-priority but
			// not-yet-released job would idle its node (the list
			// scheduler is sequential-commit); pick the earliest
			// effective start instead, breaking ties by the earliest
			// absolute deadline (EDF, which keeps tight early jobs ahead
			// of long relaxed ones) and then by priority.
			est := func(p appmodel.ProcID) float64 {
				e := arrival[p]
				if a := nodeAvail[in.Mapping[p]]; a > e {
					e = a
				}
				if in.Release[p] > e {
					e = in.Release[p]
				}
				return e
			}
			eb := est(ready[best])
			for i := head + 1; i < len(ready); i++ {
				a, b := ready[i], ready[best]
				ea := est(a)
				switch {
				case ea != eb:
					if ea < eb {
						best, eb = i, ea
					}
				case deadline[a] != deadline[b]:
					if deadline[a] < deadline[b] {
						best, eb = i, ea
					}
				case prio[a] != prio[b]:
					if prio[a] > prio[b] {
						best, eb = i, ea
					}
				case a < b:
					best, eb = i, ea
				}
			}
		}
		ready[head], ready[best] = ready[best], ready[head]
		pid := ready[head]
		head++
		j := in.Mapping[pid]

		// arrival and nodeAvail are non-negative and never NaN, so a plain
		// comparison is math.Max bit for bit.
		start := arrival[pid]
		if nodeAvail[j] > start {
			start = nodeAvail[j]
		}
		if in.Release != nil && in.Release[pid] > start {
			start = in.Release[pid]
		}
		finish := start + wcet[pid]
		if s != nil {
			s.Start[pid] = start
			s.Finish[pid] = finish
			s.NodeOrder[j] = append(s.NodeOrder[j], pid)
		}

		rec := wcet[pid] + app.Procs[pid].Mu
		if in.Recovery != nil {
			rec = in.Recovery[pid]
		}
		if rec > maxRec[j] {
			maxRec[j] = rec
		}

		var worst float64
		switch in.Model {
		case SlackShared:
			worst = finish + float64(in.Ks[j])*maxRec[j]
			nodeAvail[j] = finish
		case SlackPerProcess:
			worst = finish + float64(in.Ks[j])*rec
			// Delays propagate: the node is busy until the process's own
			// re-executions could have completed.
			nodeAvail[j] = worst
		default:
			return 0, false, fmt.Errorf("sched: unknown slack model %d", in.Model)
		}
		if s != nil {
			s.WorstFinish[pid] = worst
		}
		if worst > length {
			length = worst
		}
		// Schedule.Schedulable's test, taken as the process commits.
		if worst > deadline[pid]+1e-9 {
			schedulable = false
		}

		// Release successors, propagating data availability.
		departure := finish
		if in.Model == SlackPerProcess {
			departure = worst
		}
		for _, e := range succ[pid] {
			var arr float64
			if in.Mapping[e.Dst] == j {
				arr = departure
			} else if bus != nil {
				mstart, mend := bus.Schedule(j, departure)
				if s != nil {
					s.MsgStart[e.ID] = mstart
					s.MsgEnd[e.ID] = mend
				}
				arr = mend
			} else {
				arr = departure
			}
			if arr > arrival[e.Dst] {
				arrival[e.Dst] = arr
			}
			unscheduled[e.Dst]--
			if unscheduled[e.Dst] == 0 {
				ready = append(ready, e.Dst)
			}
		}
		scheduled++
	}
	ws.ready = ready[:0]
	if scheduled != n {
		return 0, false, fmt.Errorf("sched: scheduled %d of %d processes (cycle?)", scheduled, n)
	}
	if s != nil {
		s.Length = length
	}
	return length, schedulable, nil
}

// busSlotEstimate returns the edge weight used in the priority function
// for cross-node messages: one bus transmission. With no bus it is zero.
func busSlotEstimate(in Input) float64 {
	if in.Bus == nil {
		return 0
	}
	// Probe the bus once on a scratch basis: schedule from node 0 at time
	// 0 and reset. This yields the slot length for ttp.Bus and zero for
	// InstantBus.
	start, end := in.Bus.Schedule(0, 0)
	in.Bus.Reset()
	return end - start
}

// Schedulable reports whether every process completes, in the worst case,
// before the deadline of its graph.
func (s *Schedule) Schedulable(app *appmodel.Application) bool {
	gi := app.GraphOf()
	for pid := range s.WorstFinish {
		if s.WorstFinish[pid] > app.Graphs[gi[pid]].Deadline+1e-9 {
			return false
		}
	}
	return true
}
