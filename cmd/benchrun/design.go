package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	_ "embed"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/evalcache"
	"repro/internal/evalengine"
	"repro/internal/obs"
	"repro/internal/paper"
	"repro/internal/sfp"
	"repro/internal/taskgen"
)

// This file holds the two in-process workloads, cc-design and fig6-sweep.
// Both call core.Run directly, so their traced pass can attribute time to
// the layers below it from the spans, counters and EvalStats the program
// already exports.

// designOp runs op i with the observability hooks set in o, checks the
// designs against their known answers, and returns them.
type designOp func(ctx context.Context, i int, o core.Options) ([]*core.Result, error)

// knownAnswer is a design outcome the paper's evaluation pins
// (EXPERIMENTS.md). Schedule lengths compare at the precision they are
// published with.
type knownAnswer struct {
	feasible bool
	cost     float64
	sl       string // worst-case schedule length, %.1f ms
	arch     string // architecture and hardening levels ("" = not checked)
	ks       []int  // re-executions per node (nil = not checked)
}

var (
	ccOPT   = knownAnswer{feasible: true, cost: 56, sl: "284.4"}
	ccMAX   = knownAnswer{feasible: true, cost: 180, sl: "237.5"}
	ccMIN   = knownAnswer{feasible: false}
	fig1OPT = knownAnswer{feasible: true, cost: 52, sl: "355.0", arch: "{N1^2, N2^1} cost=52", ks: []int{1, 3}}
)

func (k knownAnswer) check(what string, res *core.Result) error {
	got := knownAnswer{feasible: res.Feasible}
	if res.Feasible {
		got.cost = res.Cost
		got.sl = fmt.Sprintf("%.1f", res.Schedule.Length)
		if k.arch != "" {
			got.arch = res.Arch.String()
		}
		if k.ks != nil {
			got.ks = res.Ks
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(k) {
		return fmt.Errorf("%s: got %+v, want %+v", what, got, k)
	}
	return nil
}

func runCC(ctx context.Context, w workload, e *env) (*result, error) {
	r := newResult(w, e)
	inst, setupS, err := setUp(e, func() (*taskgen.Instance, error) { return ccSetUp(ctx, r) }, nil)
	if err != nil {
		return nil, err
	}
	op := func(ctx context.Context, _ int, o core.Options) ([]*core.Result, error) {
		o.Goal = inst.Goal
		res, err := core.RunContext(ctx, inst.App, inst.Platform, o)
		if err != nil {
			return nil, err
		}
		return []*core.Result{res}, ccOPT.check("cc OPT", res)
	}
	if !e.trace {
		timedDesign(ctx, e, r, op, 1, setupS)
		return r, nil
	}
	tracedDesign(ctx, e, r, op, 1)
	ccSideMeasurements(ctx, e, r, inst)
	return r, nil
}

// ccSetUp builds the cruise-controller instance and checks the known
// answers the timed ops do not cover, then runs one untimed warm-up op.
func ccSetUp(ctx context.Context, r *result) (*taskgen.Instance, error) {
	inst, err := cc.Instance()
	if err != nil {
		return nil, err
	}
	for _, c := range []struct {
		s    core.Strategy
		want knownAnswer
	}{{core.MIN, ccMIN}, {core.MAX, ccMAX}, {core.OPT, ccOPT}} {
		res, err := core.RunContext(ctx, inst.App, inst.Platform, core.Options{Goal: inst.Goal, Strategy: c.s})
		if err != nil {
			return nil, err
		}
		if err := c.want.check("cc "+c.s.String(), res); err != nil {
			r.problem("%v", err)
		}
	}
	app, pl := paper.Fig1Application(), paper.Fig1Platform()
	res, err := core.RunContext(ctx, app, pl, core.Options{Goal: sfp.Goal{Gamma: paper.Fig1Gamma, Tau: 3.6e6}})
	if err != nil {
		return nil, err
	}
	if err := fig1OPT.check("Fig. 1 OPT", res); err != nil {
		r.problem("%v", err)
	}
	return inst, nil
}

// ccSideMeasurements adds the cc-only layer metrics: the in-run
// parallelism ratio and the disk-backed evaluation cache ratios. Both run
// one design at a time.
func ccSideMeasurements(ctx context.Context, e *env, r *result, inst *taskgen.Instance) {
	run := func(what string, o core.Options) float64 {
		o.Goal = inst.Goal
		r.Attempted++
		t0 := time.Now()
		res, err := core.RunContext(ctx, inst.App, inst.Platform, o)
		t := time.Since(t0).Seconds() * 1000
		if err == nil {
			err = ccOPT.check(what, res)
		}
		if err != nil {
			r.Failed++
			fmt.Fprintln(os.Stderr, "benchrun:", err)
		}
		return t
	}
	var par, seq []float64
	for i := 0; i < e.repCount(); i++ {
		par = append(par, run("cc OPT parallel", core.Options{Workers: e.nproc}))
		seq = append(seq, run("cc OPT sequential", core.Options{Workers: 1}))
	}
	r.Metrics.set("core.parallel_latency_ratio", median(par)/median(seq), len(par))

	var none, cold, warm []float64
	var diskMB float64
	for i := 0; i < e.repCount(); i++ {
		dir := filepath.Join(e.work, fmt.Sprintf("evalcache-%d", i))
		none = append(none, run("cc OPT without evalcache", core.Options{}))
		for _, times := range []*[]float64{&cold, &warm} {
			ec, err := evalcache.Open(dir)
			if err != nil {
				r.problem("evalcache: %v", err)
				return
			}
			*times = append(*times, run("cc OPT with evalcache", core.Options{EvalCache: ec}))
		}
		diskMB = float64(dirBytes(dir)) / mib
		os.RemoveAll(dir)
	}
	r.Metrics.set("evalcache.cold_ratio", median(cold)/median(none), len(cold))
	r.Metrics.set("evalcache.warm_ratio", median(warm)/median(none), len(warm))
	r.Metrics.set("evalcache.disk_mb", diskMB, 1)
}

// fig6 universe: the inputs every fig6-sweep run designs, at the Fig. 6a
// point with SER 1e-11, HPD 25% and ArC 20.
const (
	fig6Apps = 48
	fig6SER  = 1e-11
	fig6HPD  = 25
	fig6ArC  = 20
)

// fig6Config is universe app j: 20 processes for even j, 40 for odd j,
// generated from taskgen seed 1 + j/2.
func fig6Config(j int) taskgen.Config {
	size := 20
	if j%2 == 1 {
		size = 40
	}
	return taskgen.DefaultConfig(int64(1+j/2), size, fig6SER, fig6HPD)
}

var fig6Strategies = []core.Strategy{core.MIN, core.MAX, core.OPT}

// fig6Answers holds one line per universe app: what MIN, MAX and OPT
// return on it (TestFig6Answers regenerates it with -update).
//
//go:embed testdata/fig6-answers.txt
var fig6Answers string

// fig6Line renders app j's designs the way fig6-answers.txt records them:
// feasibility, cost and the exact schedule length of each strategy.
func fig6Line(j int, res []*core.Result) string {
	cfg := fig6Config(j)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d procs=%d seed=%d", j, cfg.NumProcs, cfg.Seed)
	for k, s := range fig6Strategies {
		fmt.Fprintf(&sb, " %s:%t", s, res[k].Feasible)
		if res[k].Feasible {
			fmt.Fprintf(&sb, ":%s:%s", strconv.FormatFloat(res[k].Cost, 'g', -1, 64),
				strconv.FormatFloat(res[k].Schedule.Length, 'g', -1, 64))
		}
	}
	return sb.String()
}

func parseFig6Answers() ([]string, error) {
	var lines []string
	sc := bufio.NewScanner(strings.NewReader(fig6Answers))
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" {
			lines = append(lines, l)
		}
	}
	if len(lines) != fig6Apps {
		return nil, fmt.Errorf("fig6-answers.txt has %d lines, want %d", len(lines), fig6Apps)
	}
	return lines, nil
}

// fig6Design designs universe app j under MIN, MAX and OPT.
func fig6Design(ctx context.Context, inst *taskgen.Instance, o core.Options) ([]*core.Result, error) {
	out := make([]*core.Result, len(fig6Strategies))
	for k, s := range fig6Strategies {
		o.Goal, o.Strategy, o.MaxCost = inst.Goal, s, fig6ArC
		res, err := core.RunContext(ctx, inst.App, inst.Platform, o)
		if err != nil {
			return nil, err
		}
		out[k] = res
	}
	return out, nil
}

func runFig6(ctx context.Context, w workload, e *env) (*result, error) {
	r := newResult(w, e)
	answers, err := parseFig6Answers()
	if err != nil {
		return nil, err
	}
	// The seed rotates where in the universe each run starts, which
	// changes the order of the designs; whole passes keep their set
	// identical.
	rot := int(((e.seed % fig6Apps) + fig6Apps) % fig6Apps)
	seen := map[int]bool{}
	apps, setupS, err := setUp(e, func() ([]*taskgen.Instance, error) {
		apps := make([]*taskgen.Instance, fig6Apps)
		for j := range apps {
			inst, err := taskgen.Generate(fig6Config(j))
			if err != nil {
				return nil, err
			}
			apps[j] = inst
		}
		// Warm-up: app 0 whatever the seed, so set-up does the same work
		// on every run; untimed.
		res, err := fig6Design(ctx, apps[0], core.Options{})
		if err != nil {
			return nil, err
		}
		if got := fig6Line(0, res); got != answers[0] {
			r.problem("fig6 warm-up: got %q, want %q", got, answers[0])
		}
		return apps, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	op := func(ctx context.Context, i int, o core.Options) ([]*core.Result, error) {
		j := (rot + i) % fig6Apps
		res, err := fig6Design(ctx, apps[j], o)
		if err != nil {
			return nil, err
		}
		seen[j] = true
		if got := fig6Line(j, res); got != answers[j] {
			return res, fmt.Errorf("fig6 app %d: got %q, want %q", j, got, answers[j])
		}
		return res, nil
	}
	if !e.trace {
		timedDesign(ctx, e, r, op, fig6Apps, setupS)
	} else {
		tracedDesign(ctx, e, r, op, fig6Apps)
	}
	var checked []string
	for j := range seen {
		checked = append(checked, answers[j])
	}
	r.Digest = digest(checked)
	return r, nil
}

// digest is a short order-independent hash of output lines.
func digest(lines []string) string {
	s := append([]string(nil), lines...)
	sort.Strings(s)
	sum := sha256.Sum256([]byte(strings.Join(s, "\n")))
	return fmt.Sprintf("%x", sum[:8])
}

// timedDesign is the timed pass of an in-process workload: the ops run
// with tracing off and the process's own counters give the resource
// metrics. Its peak RSS is the median over ops of the peak during each op.
func timedDesign(ctx context.Context, e *env, r *result, op designOp, cycle int, setupS float64) {
	d, maxOps := e.limits(0)
	u0 := sampleUsage()
	st := closedLoop(ctx, loopSpec{cycle: cycle, d: d, maxOps: maxOps, probe: e.probe, rss: true}, plainOp(op))
	u1 := sampleUsage()
	r.count(st)
	timedE2E(e, r, st, u1.cpu-u0.cpu, u1.alloc-u0.alloc, median(st.rssMB), setupS)
}

func plainOp(op designOp) opFunc {
	return func(ctx context.Context, i int) (time.Duration, error) {
		t0 := time.Now()
		_, err := op(ctx, i, core.Options{})
		return time.Since(t0), err
	}
}

// layerTotals accumulates the traced pass's per-op observations.
type layerTotals struct {
	opUS     float64            // op wall time measured around core.Run
	layerUS  map[string]float64 // span self time by layer
	stats    evalengine.Stats
	archs    int
	pruned   int
	spans    int
	iters    int64
	moves    int64
	wroteOne bool
}

// tracedDesign is the traced pass of an in-process workload. It first
// runs the ops untraced for half the run time (whole passes), which gives
// the GC share and the untraced latency, then runs the same op indices
// again with a tracer and a metrics registry per op and attributes each
// op's time to layers from the spans.
func tracedDesign(ctx context.Context, e *env, r *result, op designOp, cycle int) {
	u0 := sampleUsage()
	d, maxOps := e.limits(0)
	plain := closedLoop(ctx, loopSpec{cycle: cycle, d: d / 2, maxOps: maxOps}, plainOp(op))
	u1 := sampleUsage()
	r.count(plain)

	tot := &layerTotals{layerUS: map[string]float64{}}
	traced := closedLoop(ctx, loopSpec{cycle: cycle, d: forever, maxOps: plain.ops()}, func(ctx context.Context, i int) (time.Duration, error) {
		tr, reg := obs.NewTracer(), obs.NewRegistry()
		t0 := time.Now()
		res, err := op(ctx, i, core.Options{Tracer: tr, Metrics: reg})
		t := time.Since(t0)
		if err != nil {
			return t, err
		}
		tot.add(e, r, t, tr, reg, res)
		return t, nil
	})
	r.count(traced)

	m, n := r.Metrics, traced.ops()
	per := func(v float64) float64 { return v / float64(n) }
	ms := func(us float64) float64 { return us / 1000 }
	s := tot.stats
	reexecUS := float64(s.ReExecTime) / float64(time.Microsecond)
	schedUS := float64(s.SchedTime) / float64(time.Microsecond)
	m.set("core.archs_explored", per(float64(tot.archs)), n)
	m.set("core.archs_pruned", per(float64(tot.pruned)), n)
	m.set("core.self_ms", per(ms(tot.layerUS["core"])), n)
	m.set("mapping.iterations", per(float64(tot.iters)), n)
	m.set("mapping.moves", per(float64(tot.moves)), n)
	m.set("mapping.self_ms", per(ms(tot.layerUS["mapping"])), n)
	m.set("redundancy.opt_requests", per(float64(s.OptRuns)), n)
	m.set("redundancy.opt_hit_frac", ratio(s.OptHits, s.OptRuns), n)
	m.set("redundancy.self_ms", per(ms(tot.layerUS["redundancy"]-reexecUS-schedUS)), n)
	m.set("evalengine.evaluations", per(float64(s.Evaluations)), n)
	m.set("evalengine.hit_frac", ratio(s.CacheHits, s.Evaluations), n)
	m.set("evalengine.evictions", per(float64(s.Evictions)), n)
	m.set("evalengine.invalidations", per(float64(s.Invalidations)), n)
	m.set("sfp.node_builds", per(float64(s.SFPBuilds)), n)
	m.set("sfp.hit_frac", ratio(s.SFPHits, s.SFPHits+s.SFPBuilds), n)
	m.set("sfp.busy_ms", per(ms(reexecUS)), n)
	m.set("sched.builds", per(float64(s.ScheduleBuilds)), n)
	m.set("sched.busy_ms", per(ms(schedUS)), n)
	if s.ScheduleBuilds > 0 {
		m.set("sched.us_per_build", schedUS/float64(s.ScheduleBuilds), n)
	}
	m.set("gc.cpu_frac", gcFrac(u0, u1), plain.ops())
	m.set("obs.trace_overhead_frac", median(traced.latMs)/median(plain.latMs)-1, n)
	m.set("obs.spans_per_op", per(float64(tot.spans)), n)

	// The layers' exclusive times must add up to the op time: whatever
	// the spans do not cover is unattributed, and more than 5% of it
	// means the attribution no longer explains where the time goes.
	var attributed float64
	for layer, us := range tot.layerUS {
		if layer != "other" {
			attributed += us
		}
	}
	unattributed := 1 - attributed/tot.opUS
	m.set("layers.unattributed_frac", unattributed, n)
	if unattributed > maxUnattributed {
		r.problem("layer sum: %.1f%% of traced op time is not attributed to any layer (limit %.0f%%)",
			100*unattributed, 100*maxUnattributed)
	}
}

// maxUnattributed is the share of traced op time the layers may leave
// unexplained.
const maxUnattributed = 0.05

// add folds one traced op into the totals and writes the first op's
// Chrome trace.
func (t *layerTotals) add(e *env, r *result, d time.Duration, tr *obs.Tracer, reg *obs.Registry, res []*core.Result) {
	evs := tr.Events()
	for _, ev := range evs {
		if ev.Name == "arch" && ev.Args["pruned"] == true {
			t.pruned++
		}
	}
	t.opUS += float64(d) / float64(time.Microsecond)
	for l, us := range layerSelfTimes(spansFromEvents(evs)) {
		t.layerUS[l] += us
	}
	for _, res := range res {
		t.stats.Add(res.EvalStats)
		t.archs += res.ArchsExplored
	}
	t.spans += len(evs)
	t.iters += reg.Counter("mapping.iterations").Value()
	t.moves += reg.Counter("mapping.moves").Value()
	if !t.wroteOne && e.traceOut != "" {
		t.wroteOne = true
		if err := writeTrace(e.traceOut, tr); err != nil {
			r.problem("write trace: %v", err)
		} else {
			r.TraceFile = e.traceOut
		}
	}
}

func writeTrace(path string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
