package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
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

// runFigure regenerates one figure into the ArtifactTable artifact. The
// rendered bytes are exactly what cmd/paperbench historically printed for
// the figure: the table (or ablation's table group), plus the cc
// evaluator/improvement lines. Cancellation still produces the artifact —
// the experiment functions return their completed rows alongside the
// typed error, so an interrupted job carries its deterministic partial
// table.
func runFigure(ctx context.Context, j *Job, rowJ *runstate.Journal) (Artifacts, error) {
	spec := j.spec
	cfg := experiments.Config{
		Apps: spec.Apps, Procs: spec.Procs, Seed: spec.Seed,
		Workers: spec.Workers, RunWorkers: spec.RunWorkers,
		AppTimeout: spec.AppTimeout,
		ShardIndex: spec.ShardIndex, ShardCount: spec.ShardCount,
		Metrics: j.obs.Metrics, Progress: j.obs.Progress, Log: j.obs.Log,
		Events: j.obs.Events,
	}
	if rowJ != nil {
		// Guarded: a nil *runstate.Journal inside the RowStore interface
		// would read as non-nil and panic on first use.
		cfg.Journal = rowJ
	}
	if testFigRowDone != nil {
		id := j.id
		cfg.RowDone = func(key string) { testFigRowDone(id, key) }
	}
	return renderFigure(ctx, spec, cfg, j.obs)
}

// MergeOpt tunes a MergeShards call.
type MergeOpt int

// Partial switches MergeShards from strict to degraded mode: shards whose
// journals are missing or damaged no longer refuse the merge — their rows
// render as "!" cells and the ArtifactIncomplete report names every
// missing row and the shard that owns it. Strict (no options) remains the
// default: an incomplete sweep refuses loudly rather than produce a table.
const Partial MergeOpt = 1

// MergeShards reassembles a sharded sweep from its shard directory into
// the figure's ArtifactTable — byte-identical to a single-process run of
// the same spec. The merge never computes: every row is restored from the
// per-shard journals (strict mode), and a missing or damaged shard is a
// loud *shard.IncompleteError naming the workers to rerun. The manifest
// must describe exactly the workload and figure the spec asks for, so
// journals from a different sweep can never be dressed up as this one.
// Passing Partial degrades instead of refusing; see MergeOpt.
func MergeShards(ctx context.Context, spec Spec, dir string, inst Instruments, opts ...MergeOpt) (Artifacts, error) {
	partial := false
	for _, o := range opts {
		if o == Partial {
			partial = true
		}
	}
	if spec.Kind == "" {
		spec.Kind = KindFigure
	}
	base := spec
	base.ShardIndex, base.ShardCount = 0, 0
	if err := base.Validate(); err != nil {
		return nil, err
	}
	if base.Kind != KindFigure {
		return nil, fmt.Errorf("jobs: merge of a %s job (only figure sweeps shard)", base.Kind)
	}
	if !ShardableFigure(base.Fig) {
		return nil, fmt.Errorf("jobs: figure %s is not shardable, nothing to merge", base.Fig)
	}
	var (
		rows    *shard.Rows
		reasons map[int]string
		err     error
	)
	if partial {
		rows, reasons, err = shard.LoadPartial(dir)
	} else {
		rows, err = shard.Load(dir)
	}
	if err != nil {
		return nil, err
	}
	m := rows.Manifest()
	wantFP, err := shard.WorkloadFingerprint(base.Apps, base.Procs, base.Seed)
	if err != nil {
		return nil, err
	}
	if m.FP != wantFP {
		return nil, fmt.Errorf("jobs: shard directory %s holds workload %s (fig %s, apps=%d procs=%v seed=%d), merge asked for workload %s (fig %s, apps=%d procs=%v seed=%d)",
			dir, m.FP, m.Fig, m.Apps, m.Procs, m.Seed, wantFP, base.Fig, base.Apps, base.Procs, base.Seed)
	}
	if m.Fig != base.Fig {
		return nil, fmt.Errorf("jobs: shard directory %s holds figure %s, merge asked for %s", dir, m.Fig, base.Fig)
	}
	cfg := experiments.Config{
		Apps: base.Apps, Procs: base.Procs, Seed: base.Seed,
		Workers: base.Workers, RunWorkers: base.RunWorkers,
		AppTimeout: base.AppTimeout,
		Journal:    rows,
		// ShardIndex -1 owns every row; RequireJournaled turns any row that
		// is not in the merged store into an error attributing the
		// incomplete shard instead of a recomputation.
		ShardIndex: -1, ShardCount: m.Shards,
		RequireJournaled: true,
		Metrics:          inst.Metrics, Progress: inst.Progress, Log: inst.Log,
		Events: inst.Events,
	}
	var missing *experiments.MissingRows
	if partial {
		missing = &experiments.MissingRows{}
		cfg.Missing = missing
	}
	art, err := renderFigure(ctx, base, cfg, inst)
	if partial && art != nil {
		rep, jerr := incompleteReport(base.Fig, m.Shards, rows.Len(), reasons, missing.Keys())
		if jerr != nil {
			if err == nil {
				err = jerr
			}
		} else {
			art[ArtifactIncomplete] = rep
		}
	}
	return art, err
}

// incompleteReport renders the ArtifactIncomplete JSON of a degraded
// merge: which shards were unusable and why, and every missing row with
// the shard that owns it — exactly what to re-run to complete the table.
func incompleteReport(fig string, shards, present int, reasons map[int]string, missingKeys []string) ([]byte, error) {
	type missingRow struct {
		Key   string `json:"key"`
		Shard int    `json:"shard"`
	}
	sort.Strings(missingKeys)
	rows := make([]missingRow, len(missingKeys))
	for i, k := range missingKeys {
		rows[i] = missingRow{Key: k, Shard: shard.Index(k, shards)}
	}
	byShard := map[string]string{}
	for i, why := range reasons {
		byShard[strconv.Itoa(i)] = why
	}
	return jsonMarshalIndent(struct {
		Fig          string            `json:"fig"`
		Shards       int               `json:"shards"`
		Complete     bool              `json:"complete"`
		PresentRows  int               `json:"present_rows"`
		MissingRows  []missingRow      `json:"missing_rows,omitempty"`
		ShardReasons map[string]string `json:"shard_reasons,omitempty"`
	}{
		Fig:          fig,
		Shards:       shards,
		Complete:     len(reasons) == 0 && len(missingKeys) == 0,
		PresentRows:  present,
		MissingRows:  rows,
		ShardReasons: byShard,
	})
}

// renderFigure dispatches one figure run (live, sharded or merge — the
// difference lives entirely in cfg) and renders the ArtifactTable bytes.
func renderFigure(ctx context.Context, spec Spec, cfg experiments.Config, inst Instruments) (Artifacts, error) {
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

	var err error
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
		err = runCC(ctx, &buf, render, spec.RunWorkers, span, inst.Metrics, inst.Progress, lg)
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
// "cc.strategies" progress phase and log per-run records.
func runCC(ctx context.Context, w io.Writer, render func(*experiments.Table) error, runWorkers int, span *obs.Span, reg *obs.Registry, prog *obs.Progress, lg *obs.Logger) error {
	inst, err := cc.Instance()
	if err != nil {
		return err
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
			Goal: inst.Goal, Strategy: s, Workers: runWorkers,
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
	opts := core.Options{Goal: doc.Goal(), MaxCost: spec.MaxCost, Workers: spec.RunWorkers,
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
