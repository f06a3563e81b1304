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

// CloneableBus is a Bus whose booking state can be duplicated, giving
// each goroutine of a parallel search its own bus to mutate. Clones share
// the bus parameters (slot layout, timing) but no bookings; a fresh clone
// is equivalent to a fresh bus. Buses that do not implement CloneableBus
// limit the evaluation engine to a single worker.
type CloneableBus interface {
	Bus
	// CloneBus returns an unbooked bus with the same parameters. A
	// stateless bus may return itself.
	CloneBus() Bus
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
// topological order, graph index) and reuses the scheduler's scratch
// buffers across Build calls, so evaluation-heavy callers (package
// evalengine) stop paying the per-build allocation cost. The zero value is
// ready to use. A Workspace is bound to one application at a time and
// assumes the application is not mutated while bound; it is not safe for
// concurrent use.
type Workspace struct {
	app  *appmodel.Application
	pred [][]appmodel.Edge
	succ [][]appmodel.Edge
	topo []appmodel.ProcID
	gi   []int

	wcet, prio, arrival, nodeAvail, maxRec []float64
	unscheduled                            []int
	ready                                  []appmodel.ProcID
	nodeCount                              []int
	absDeadline                            []float64
	vers                                   []*platform.HVersion // per-node selected version, hoisted per build

	// out is the workspace's own schedule, the destination of
	// BuildInPlace; outF and outP back its arrays. Each in-place build
	// overwrites them.
	out  Schedule
	outF []float64
	outP []appmodel.ProcID
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
	ws.gi = app.GraphOf()
	return nil
}

// Schedulable is Schedule.Schedulable against the workspace's bound
// application, using the cached graph index.
func (ws *Workspace) Schedulable(s *Schedule) bool {
	for pid := range s.WorstFinish {
		if s.WorstFinish[pid] > ws.app.Graphs[ws.gi[pid]].Deadline+1e-9 {
			return false
		}
	}
	return true
}

// floats returns buf resized to n elements, all zero, growing the backing
// array only when needed.
func floats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	s := (*buf)[:n]
	for i := range s {
		s[i] = 0
	}
	*buf = s
	return s
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
	return buildWith(in, ws, false)
}

// BuildInPlace is BuildInto with the workspace's own schedule as the
// destination: it allocates nothing once the workspace has grown to the
// application, and the next BuildInPlace on the same workspace overwrites
// the schedule it returned. Callers that keep a schedule beyond that copy
// what they need or rebuild it with BuildInto. The result is bit-identical
// to BuildInto's.
func BuildInPlace(in Input, ws *Workspace) (*Schedule, error) {
	return buildWith(in, ws, true)
}

func buildWith(in Input, ws *Workspace, inPlace bool) (*Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if ws == nil {
		ws = &Workspace{}
	}
	app := in.App
	if err := ws.bind(app); err != nil {
		return nil, err
	}
	n := app.NumProcesses()
	// Hoist the per-node version lookup (a scan over the node's version
	// list) out of the per-process loop: m lookups instead of n.
	if cap(ws.vers) < len(in.Arch.Nodes) {
		ws.vers = make([]*platform.HVersion, len(in.Arch.Nodes))
	}
	vers := ws.vers[:len(in.Arch.Nodes)]
	for j := range vers {
		vers[j] = in.Arch.Version(j)
	}
	wcet := floats(&ws.wcet, n) // t_ijh of each process on its mapped node
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
	prio := floats(&ws.prio, n)
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

	// The schedule's three per-process and two per-edge arrays share one
	// float buffer; NodeOrder gets a single spine sized from the mapping
	// histogram. An in-place build writes into the workspace's own
	// schedule, every other build into a fresh one.
	m := len(in.Arch.Nodes)
	ne := len(app.Edges)
	if cap(ws.nodeCount) < m {
		ws.nodeCount = make([]int, m)
	}
	counts := ws.nodeCount[:m]
	for j := range counts {
		counts[j] = 0
	}
	for _, j := range in.Mapping {
		counts[j]++
	}
	var s *Schedule
	if inPlace {
		s = &ws.out
		if cap(ws.outP) < n {
			ws.outP = make([]appmodel.ProcID, n)
		}
		s.layout(floats(&ws.outF, 3*n+2*ne), ws.outP[:n], n, counts)
	} else {
		s = &Schedule{}
		s.layout(make([]float64, 3*n+2*ne), make([]appmodel.ProcID, n), n, counts)
	}

	pred := ws.pred
	succ := ws.succ
	if cap(ws.unscheduled) < n {
		ws.unscheduled = make([]int, n)
	}
	unscheduled := ws.unscheduled[:n] // remaining predecessor count
	for pid := 0; pid < n; pid++ {
		unscheduled[pid] = len(pred[pid])
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

	nodeAvail := floats(&ws.nodeAvail, m)
	// maxRec[j] is the running max of (t + μ) over the processes already
	// scheduled on node j (the shared slack quantum).
	maxRec := floats(&ws.maxRec, m)
	// arrival[pid] is the time all inputs of pid are available at its
	// node (fault-free in the shared model; worst-case in the
	// per-process model).
	arrival := floats(&ws.arrival, n)

	// Absolute deadlines, used by the EDF tie-break in release mode.
	var absDeadline []float64
	if in.Release != nil {
		absDeadline = floats(&ws.absDeadline, n)
		for pid := 0; pid < n; pid++ {
			absDeadline[pid] = app.Graphs[ws.gi[pid]].Deadline
		}
	}

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
				e := math.Max(arrival[p], nodeAvail[in.Mapping[p]])
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
				case absDeadline[a] != absDeadline[b]:
					if absDeadline[a] < absDeadline[b] {
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

		start := math.Max(arrival[pid], nodeAvail[j])
		if in.Release != nil && in.Release[pid] > start {
			start = in.Release[pid]
		}
		finish := start + wcet[pid]
		s.Start[pid] = start
		s.Finish[pid] = finish
		s.NodeOrder[j] = append(s.NodeOrder[j], pid)

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
			return nil, fmt.Errorf("sched: unknown slack model %d", in.Model)
		}
		s.WorstFinish[pid] = worst
		if worst > s.Length {
			s.Length = worst
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
				s.MsgStart[e.ID] = mstart
				s.MsgEnd[e.ID] = mend
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
		return nil, fmt.Errorf("sched: scheduled %d of %d processes (cycle?)", scheduled, n)
	}
	return s, nil
}

// layout points the schedule's arrays into fbuf — three zeroed
// per-process arrays followed by two per-edge arrays — and spine, marks
// every message window NaN, resets Length and empties NodeOrder with room
// for counts[j] processes on node j.
func (s *Schedule) layout(fbuf []float64, spine []appmodel.ProcID, n int, counts []int) {
	ne := (len(fbuf) - 3*n) / 2
	msg := fbuf[3*n:]
	for i := range msg {
		msg[i] = math.NaN()
	}
	s.Start = fbuf[0:n:n]
	s.Finish = fbuf[n : 2*n : 2*n]
	s.WorstFinish = fbuf[2*n : 3*n : 3*n]
	s.MsgStart = msg[0:ne:ne]
	s.MsgEnd = msg[ne : 2*ne : 2*ne]
	if cap(s.NodeOrder) < len(counts) {
		s.NodeOrder = make([][]appmodel.ProcID, len(counts))
	}
	s.NodeOrder = s.NodeOrder[:len(counts)]
	for j, off := 0, 0; j < len(counts); j++ {
		s.NodeOrder[j] = spine[off : off : off+counts[j]]
		off += counts[j]
	}
	s.Length = 0
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
