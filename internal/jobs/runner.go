package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/runctl"
	"repro/internal/runstate"
	"repro/internal/sched"
	"repro/internal/shard"
	"repro/internal/specio"
)

// testFigRowDone, when non-nil, observes every freshly journaled row of a
// figure run; the crash-resume tests use it to stop the scheduler at
// exact row boundaries.
var testFigRowDone func(rowKey string)

// RunFigure regenerates one figure into the ArtifactTable artifact, the
// one figure path of both binaries: paperbench calls it directly and the
// scheduler calls it for ftesd's figure jobs. The rendered bytes are the
// table (or ablation's table group), plus the cc evaluator/improvement
// lines. A non-nil rowJournal journals every completed row and restores
// the rows an earlier run already journaled. sl selects the rows of one
// slice of a sharded sweep — only a paperbench worker passes a non-zero
// Slice, with the slice journal shard.OpenSlice opened — and is not part
// of the spec, so a job's content address never depends on it.
// Cancellation still produces the artifact: the experiment functions
// return their completed rows alongside the typed error, so an
// interrupted run carries its deterministic partial table. A panic comes
// back as a *runctl.PanicError.
func RunFigure(ctx context.Context, spec Spec, sl shard.Slice, rowJournal *runstate.Journal, inst Instruments) (Artifacts, error) {
	cfg := experiments.Config{
		Apps: spec.Apps, Procs: spec.Procs, Seed: spec.Seed,
		Workers: spec.Workers, AppTimeout: spec.AppTimeout,
		Slice:   sl,
		Metrics: inst.Metrics, Progress: inst.Progress, Log: inst.Log,
		Events: inst.Events, RowDone: testFigRowDone,
	}
	if rowJournal != nil {
		// Guarded: a nil *runstate.Journal inside the RowStore interface
		// would read as non-nil and panic on first use.
		cfg.Journal = rowJournal
	}
	return renderFigure(ctx, spec, cfg, inst)
}

// MergeShards reassembles a sharded sweep from its shard directory into
// the figure's ArtifactTable — byte-identical to a single-process run of
// the same spec. The merge never computes: every row is restored from the
// per-shard journals, and a row none of them holds renders as "!" cells.
// The manifest must describe exactly the workload and figure the spec
// asks for, so journals from a different sweep can never be dressed up as
// this one. A merge with gaps — a missing or damaged journal, a row no
// journal holds — is refused with a *shard.IncompleteError naming every
// incomplete shard, and no artifacts. With partial set it degrades
// instead: the table keeps its "!" cells, and the ArtifactIncomplete
// report names every missing row and the shard that owns it.
func MergeShards(ctx context.Context, spec Spec, dir string, inst Instruments, partial bool) (Artifacts, error) {
	if spec.Kind == "" {
		spec.Kind = KindFigure
	}
	if spec.Kind != KindFigure {
		return nil, fmt.Errorf("jobs: merge of a %s job (only figure sweeps shard)", spec.Kind)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := CheckShardable(spec.Fig); err != nil {
		return nil, err
	}
	rows, err := shard.Load(dir)
	if err != nil {
		return nil, err
	}
	m := rows.Manifest()
	wantFP, err := shard.WorkloadFingerprint(spec.Apps, spec.Procs, spec.Seed)
	if err != nil {
		return nil, err
	}
	if m.FP != wantFP {
		return nil, fmt.Errorf("jobs: shard directory %s holds workload %s (fig %s, apps=%d procs=%v seed=%d), merge asked for workload %s (fig %s, apps=%d procs=%v seed=%d)",
			dir, m.FP, m.Fig, m.Apps, m.Procs, m.Seed, wantFP, spec.Fig, spec.Apps, spec.Procs, spec.Seed)
	}
	if m.Fig != spec.Fig {
		return nil, fmt.Errorf("jobs: shard directory %s holds figure %s, merge asked for %s", dir, m.Fig, spec.Fig)
	}
	cfg := experiments.Config{
		Apps: spec.Apps, Procs: spec.Procs, Seed: spec.Seed,
		Workers: spec.Workers, AppTimeout: spec.AppTimeout,
		Journal: rows, Merge: true,
		Metrics: inst.Metrics, Progress: inst.Progress, Log: inst.Log,
		Events: inst.Events,
	}
	art, err := renderFigure(ctx, spec, cfg, inst)
	if err != nil {
		return art, err
	}
	gaps := rows.Gaps()
	if !partial {
		if !gaps.Complete() {
			return nil, gaps
		}
		return art, nil
	}
	if art[ArtifactIncomplete], err = jsonMarshalIndent(gaps); err != nil {
		return nil, err
	}
	return art, nil
}

// renderFigure dispatches one figure run (live, sharded or merge — the
// difference lives entirely in cfg) and renders the ArtifactTable bytes,
// containing any panic as a *runctl.PanicError.
func renderFigure(ctx context.Context, spec Spec, cfg experiments.Config, inst Instruments) (art Artifacts, err error) {
	defer runctl.Recover("figure "+spec.Fig, &err)
	span := inst.Tracer.Start("fig." + spec.Fig)
	defer span.End()
	cfg.Span = span
	lg := inst.Log
	lg.Info("figure start", "fig", spec.Fig, "span", span.ID())
	start := time.Now()

	var buf bytes.Buffer
	render := func(t *experiments.Table) error {
		if spec.Markdown {
			return t.RenderMarkdown(&buf)
		}
		return t.Render(&buf)
	}
	// renderResult renders whatever table came back — on cancellation the
	// completed rows are rendered alongside the typed error.
	renderResult := func(t *experiments.Table, err error) error {
		if t != nil {
			if rerr := render(t); rerr != nil && err == nil {
				err = rerr
			}
		}
		return err
	}
	table := func(f func(context.Context, experiments.Config) (*experiments.Table, error)) error {
		return renderResult(f(ctx, cfg))
	}

	switch spec.Fig {
	case "6a":
		err = table(experiments.Fig6a)
	case "6b":
		err = table(experiments.Fig6b)
	case "6c":
		err = table(experiments.Fig6c)
	case "6d":
		err = table(experiments.Fig6d)
	case "cc":
		err = runCC(ctx, &buf, render, span, inst.Metrics, inst.Progress, lg)
	case "runtime":
		err = renderResult(experiments.RuntimeStudy(ctx, cfg, 1e-11, 25))
	case "simulation":
		err = renderResult(experiments.SimulationStudy(ctx, cfg, 1e-11, 200))
	case "policies":
		err = renderResult(experiments.PolicyComparison(ctx, cfg, 1e-10, 0.5))
	case "ablation":
		err = runAblation(ctx, &buf, cfg, renderResult)
	default:
		err = fmt.Errorf("jobs: unknown figure %q", spec.Fig)
	}

	switch {
	case err == nil:
		lg.Info("figure done", "fig", spec.Fig, "elapsed", time.Since(start), "span", span.ID())
	case errors.Is(err, runctl.ErrCanceled):
		lg.Info("figure interrupted", "fig", spec.Fig, "err", err.Error(), "span", span.ID())
	default:
		lg.Error("figure failed", "fig", spec.Fig, "err", err.Error(), "span", span.ID())
	}
	return Artifacts{ArtifactTable: buf.Bytes()}, err
}

// runAblation renders the four ablation tables, blank-line separated,
// stopping (with the partial group preserved) at the first error.
func runAblation(ctx context.Context, w io.Writer, cfg experiments.Config,
	renderResult func(*experiments.Table, error) error) error {
	if err := renderResult(experiments.AblationSlack(ctx, cfg, experiments.Point{SER: 1e-10, HPD: 25, ArC: 20})); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := renderResult(experiments.AblationMapping(ctx, cfg, experiments.Point{SER: 1e-11, HPD: 25, ArC: 20})); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := renderResult(experiments.AblationGradient(ctx, cfg, 1e-10)); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return renderResult(experiments.AblationBus(ctx, cfg, experiments.Point{SER: 1e-11, HPD: 25, ArC: 20}))
}

// runCC reproduces the cruise-controller case study. span, reg, prog and
// lg are the optional observability hooks (nil disables each): the three
// design runs nest under span, fold their counters into reg, tick the
// "cc.strategies" progress phase and log per-run records. A nil reg is
// replaced by a private one, which turns on the engine's layer timers.
func runCC(ctx context.Context, w io.Writer, render func(*experiments.Table) error, span *obs.Span, reg *obs.Registry, prog *obs.Progress, lg *obs.Logger) error {
	inst, err := cc.Instance()
	if err != nil {
		return err
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	ph := prog.Phase("cc.strategies")
	ph.SetTotal(3)
	defer ph.Done()
	t := experiments.NewTable("Cruise controller (32 processes on ETM/ABS/TCM, D=300 ms, rho=1-1.2e-5)",
		[]string{"strategy", "feasible", "cost", "schedule length (ms)"})
	var maxCost, optCost float64
	type strategyStats struct {
		s     core.Strategy
		stats string
	}
	var lines []strategyStats
	for _, s := range []core.Strategy{core.MIN, core.MAX, core.OPT} {
		res, err := core.RunContext(ctx, inst.App, inst.Platform, core.Options{
			Goal: inst.Goal, Strategy: s,
			ParentSpan: span, Metrics: reg, Progress: prog, Log: lg,
		})
		if err != nil {
			return err
		}
		ph.Add(1)
		if res.Feasible {
			ph.Best(res.Cost)
		}
		row := []string{s.String(), fmt.Sprint(res.Feasible), "-", "-"}
		if res.Feasible {
			row[2] = fmt.Sprintf("%g", res.Cost)
			row[3] = fmt.Sprintf("%.1f", res.Schedule.Length)
		}
		t.AddRow(row)
		lines = append(lines, strategyStats{s, res.EvalStats.String()})
		switch s {
		case core.MAX:
			maxCost = res.Cost
		case core.OPT:
			optCost = res.Cost
		}
	}
	if err := render(t); err != nil {
		return err
	}
	for _, l := range lines {
		fmt.Fprintf(w, "%s evaluator: %s\n", l.s, l.stats)
	}
	if maxCost > 0 && optCost > 0 {
		fmt.Fprintf(w, "OPT improves on MAX by %.0f%% in cost (paper: 66%%)\n", 100*(maxCost-optCost)/maxCost)
	}
	return nil
}

// runDesign runs one design optimization over the spec's specio document
// and produces an ftopt-style text summary (ArtifactResultText) and a
// machine-readable record (ArtifactResultJSON).
func runDesign(ctx context.Context, spec Spec, inst Instruments) (Artifacts, error) {
	doc, err := specio.Read(bytes.NewReader(spec.Design))
	if err != nil {
		return nil, err
	}
	opts := core.Options{Goal: doc.Goal(), MaxCost: spec.MaxCost,
		Metrics: inst.Metrics, Progress: inst.Progress, Log: inst.Log}
	switch spec.Strategy {
	case "", "OPT":
		opts.Strategy = core.OPT
	case "MIN":
		opts.Strategy = core.MIN
	case "MAX":
		opts.Strategy = core.MAX
	}
	switch spec.Slack {
	case "", "shared":
		opts.Model = sched.SlackShared
	case "per-process":
		opts.Model = sched.SlackPerProcess
	}
	span := inst.Tracer.Start("design")
	defer span.End()
	opts.ParentSpan = span

	res, err := core.RunContext(ctx, doc.Application, doc.Platform, opts)
	if err != nil {
		return nil, err
	}

	var buf bytes.Buffer
	fmt.Fprintf(&buf, "application: %s (%d processes, %d graphs)\n",
		doc.Application.Name, doc.Application.NumProcesses(), len(doc.Application.Graphs))
	fmt.Fprintf(&buf, "strategy:    %s  (reliability goal 1-%.3g per %.0f ms)\n",
		opts.Strategy, doc.Goal().Gamma, doc.Goal().Tau)
	fmt.Fprintf(&buf, "explored:    %d architectures, %d redundancy evaluations\n",
		res.ArchsExplored, res.Evaluations)
	type jsonResult struct {
		Application   string  `json:"application"`
		Strategy      string  `json:"strategy"`
		Feasible      bool    `json:"feasible"`
		Cost          float64 `json:"cost,omitempty"`
		ScheduleLenMs float64 `json:"schedule_length_ms,omitempty"`
		ArchsExplored int     `json:"archs_explored"`
		Evaluations   int     `json:"evaluations"`
	}
	rec := jsonResult{
		Application:   doc.Application.Name,
		Strategy:      opts.Strategy.String(),
		Feasible:      res.Feasible,
		ArchsExplored: res.ArchsExplored,
		Evaluations:   res.Evaluations,
	}
	if !res.Feasible {
		fmt.Fprintln(&buf, "result:      INFEASIBLE — no architecture meets the deadline, reliability goal and cost bound")
	} else {
		rec.Cost = res.Cost
		rec.ScheduleLenMs = res.Schedule.Length
		fmt.Fprintf(&buf, "result:      feasible, cost %g\n", res.Cost)
		fmt.Fprintf(&buf, "architecture: %s\n", res.Arch)
		for j, node := range res.Arch.Nodes {
			var procs []string
			for pid, m := range res.Mapping {
				if m == j {
					procs = append(procs, doc.Application.Procs[pid].Name)
				}
			}
			fmt.Fprintf(&buf, "  %s^%d: k=%d  processes: %v\n", node.Name, res.Arch.Levels[j], res.Ks[j], procs)
		}
		fmt.Fprintf(&buf, "worst-case schedule length: %.3f ms\n", res.Schedule.Length)
	}
	js, err := jsonMarshalIndent(rec)
	if err != nil {
		return nil, err
	}
	return Artifacts{ArtifactResultText: buf.Bytes(), ArtifactResultJSON: js}, nil
}
