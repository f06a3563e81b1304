// Command paperbench regenerates the experimental evaluation of the paper
// (Section 7): the acceptance-rate figures 6a–6d, the cruise-controller
// case study, and the ablation studies of this reproduction.
//
// Usage:
//
//	paperbench -fig 6a            # one figure
//	paperbench -fig all           # everything
//	paperbench -fig 6b -apps 150  # full paper scale (slow)
//	paperbench -fig cc -md        # Markdown tables
//	paperbench -fig 6a -cpuprofile cpu.pprof  # profile the run
//	paperbench -fig 6b -serve :8080 -progress # watch a long sweep live
//	paperbench -fig cc -log json              # structured logs on stderr
//	paperbench -fig 6b -shards 4 -shard-dir sweep       # launch a sharded sweep
//	paperbench -fig 6b -shards 4 -shard 2 -shard-dir sweep  # run one slice
//	paperbench -fig 6b -merge sweep                     # merge finished slices
//
// Figures: 6a–6d (the paper's acceptance sweeps), cc (cruise controller),
// policies (re-execution vs checkpointing vs replication), simulation
// (execution replay vs static bounds), runtime (MIN/MAX/OPT wall-clock
// with the evaluation-engine counters), ablation (slack sharing, tabu
// mapping, gradient guidance).
//
// Each figure runs through jobs.RunFigure, in order, on the main
// goroutine. cmd/ftesd (the daemon form of the same runs) renders its
// figure jobs through the same function, so both produce byte-identical
// tables.
//
// -cpuprofile and -memprofile write pprof profiles covering the selected
// figures, for `go tool pprof`.
//
// Live introspection: -serve ADDR exposes /metrics (Prometheus text
// exposition), /progress (JSON), /trace (Chrome trace snapshot),
// /events (progress frames over server-sent events), /healthz,
// /debug/vars and /debug/pprof for the duration of the run; -progress
// renders a throttled status line on stderr. Both are observation-only:
// the tables are byte-identical with or without them.
//
// Sharded sweeps have one launcher: -shards N -shard-dir D without
// -shard starts one worker subprocess per slice, restarts dead or wedged
// workers with backoff (each restart resumes its slice journal), and
// then merges the directory exactly like -merge D. A slice is given up
// only after 8 consecutive attempts that journal no row. Workers
// (-shard i) and -merge remain usable by hand, e.g. across machines
// sharing the directory. Sharded sweeps trace across processes: every
// worker snapshots its trace into the shard directory, and -trace FILE
// on the launcher or on -merge stitches all of them (plus the merge
// itself) into one timeline, one lane per worker.
//
// All diagnostics (-progress, -log, -metrics, the -serve banner) go to
// stderr or to files; stdout carries only the tables, so redirecting it
// stays golden-comparable.
//
// Absolute acceptance percentages depend on the synthetic workload
// calibration; the comparisons that matter are the relative ones (see
// EXPERIMENTS.md).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/fsatomic"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/obs/obshttp"
	"repro/internal/runctl"
	"repro/internal/runstate"
	"repro/internal/shard"
)

// stderr is where diagnostics (-progress, -log, -metrics, the -serve
// banner) go; a variable so tests can capture it.
var stderr io.Writer = os.Stderr

// testServeHook, when non-nil, receives the bound -serve address before
// the figures run; tests use it to scrape the endpoints mid-run.
var testServeHook func(addr string)

// testServeDrainHook, when non-nil, runs after the figures finish but
// before the introspection server drains — the last moment the final
// counters are still scrapeable.
var testServeDrainHook func()

func main() {
	ctx, stop := signalContext()
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		if errors.Is(err, runctl.ErrCanceled) {
			os.Exit(130)
		}
		os.Exit(1)
	}
}

// signalContext installs the two-stage interrupt protocol: the first
// SIGINT/SIGTERM cancels the returned context — the run stops at the
// next row boundary, flushes the partial tables and syncs the journal —
// and a second signal exits immediately.
func signalContext() (context.Context, func()) {
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		fmt.Fprintln(os.Stderr, "paperbench: interrupt — stopping at the next row, flushing partial results (interrupt again to exit now)")
		cancel()
		<-ch
		fmt.Fprintln(os.Stderr, "paperbench: second interrupt — exiting immediately")
		os.Exit(130)
	}()
	return ctx, func() { signal.Stop(ch); cancel() }
}

func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fig := fs.String("fig", "all", "figure to regenerate: 6a, 6b, 6c, 6d, cc, policies, simulation, runtime, ablation or all")
	apps := fs.Int("apps", 10, "applications per process count (paper: 150)")
	procs := fs.String("procs", "20,40", "comma-separated process counts")
	seed := fs.Int64("seed", 1, "base seed")
	workers := fs.Int("workers", 0, "parallel workers across applications (0 = all cores)")
	md := fs.Bool("md", false, "render tables as Markdown instead of ASCII")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the selected figures to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile taken after the selected figures to this file")
	trace := fs.String("trace", "", "write a Chrome trace_event JSON of the selected figures to this file (load in Perfetto or chrome://tracing)")
	metrics := fs.Bool("metrics", false, "print the observability counters and duration histograms to stderr after the run")
	metricsOut := fs.String("metrics-out", "", "write the observability counters to this file instead of stderr (implies -metrics)")
	serve := fs.String("serve", "", "serve live introspection on this address (e.g. :8080 or 127.0.0.1:0) for the duration of the run: /metrics, /progress, /trace, /healthz, /debug/vars, /debug/pprof")
	serveWait := fs.Bool("serve-wait", false, "with -serve: keep the introspection server up after the run until SIGINT/SIGTERM, so the final counters can still be scraped")
	progress := fs.Bool("progress", false, "render a live progress status line on stderr")
	logFormat := fs.String("log", "", "emit structured logs on stderr: text or json")
	logLevel := fs.String("log-level", "info", "minimum structured-log level: debug, info, warn or error")
	timeout := fs.Duration("timeout", 0, "overall run deadline; on expiry the run stops at the next row boundary and flushes partial tables (0 = none)")
	appTimeout := fs.Duration("app-timeout", 0, "per-application deadline; a timed-out application counts as rejected (runtime and simulation rows leave it out) instead of aborting the sweep (0 = none)")
	journalPath := fs.String("journal", "", "journal completed experiment rows to this crash-safe append-only file")
	resume := fs.Bool("resume", false, "with -journal or -shard-dir: restore rows a previous interrupted run already journaled instead of recomputing them")
	shards := fs.Int("shards", 0, "shard the sweep this many ways (every figure but cc): without -shard, launch one worker subprocess per slice into -shard-dir, restart dead or wedged workers until every slice is journaled, then merge like -merge")
	shardIdx := fs.Int("shard", -1, "with -shards: run only as the worker of this shard index in [0, shards), journaling its rows into -shard-dir")
	shardDir := fs.String("shard-dir", "", "with -shards: the sweep's shard directory (manifest + per-shard journals), shared by all workers")
	mergeDir := fs.String("merge", "", "merge the per-shard journals in this directory into the final table; computes nothing, and refuses (naming the incomplete shards) unless every shard finished")
	partial := fs.Bool("partial", false, "with -merge: degrade instead of refusing when shards are missing or damaged — absent rows render as '!' cells and incomplete.json (written next to the journals) names every missing row and its owning shard")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var tracer *obs.Tracer
	if *trace != "" || *serve != "" {
		tracer = obs.NewTracer()
	}
	var reg *obs.Registry
	if *metrics || *metricsOut != "" || *serve != "" {
		reg = obs.NewRegistry()
	}
	var prog *obs.Progress
	if *progress || *serve != "" {
		prog = obs.NewProgress()
	}
	lg, err := obs.NewFlagLogger(stderr, *logFormat, *logLevel)
	if err != nil {
		return err
	}
	if *serveWait && *serve == "" {
		return fmt.Errorf("-serve-wait requires -serve")
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "paperbench: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the retained heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "paperbench: -memprofile:", err)
			}
		}()
	}

	if *serve != "" {
		srv, err := obshttp.Serve(*serve, obshttp.Options{Registry: reg, Progress: prog, Tracer: tracer})
		if err != nil {
			return err
		}
		// Graceful teardown: stop admitting scrapes, give in-flight ones a
		// bounded drain, then force-close whatever is left.
		defer func() {
			if testServeDrainHook != nil {
				testServeDrainHook()
			}
			if err := srv.Drain(); err != nil {
				fmt.Fprintln(stderr, "paperbench: introspection drain:", err)
			}
		}()
		fmt.Fprintf(stderr, "paperbench: serving live introspection on %s\n", srv.URL())
		lg.Info("introspection server up", "url", srv.URL())
		if testServeHook != nil {
			testServeHook(srv.Addr())
		}
	}
	if *progress {
		stop := renderProgress(prog, stderr)
		defer stop()
	}

	base := jobs.Spec{Kind: jobs.KindFigure, Apps: *apps, Seed: *seed,
		Workers: *workers, AppTimeout: *appTimeout, Markdown: *md}
	if base.Procs, err = splitInts(*procs); err != nil {
		return err
	}
	if len(base.Procs) == 0 {
		return fmt.Errorf("no process counts in -procs")
	}

	if *resume && *journalPath == "" && *shardDir == "" {
		return fmt.Errorf("-resume requires -journal or -shard-dir")
	}

	var selected []string
	if *fig == "all" {
		selected = jobs.FigureOrder()
	} else if jobs.KnownFigure(*fig) {
		selected = []string{*fig}
	} else {
		return fmt.Errorf("unknown figure %q (want 6a, 6b, 6c, 6d, cc, policies, simulation, runtime, ablation or all)", *fig)
	}

	sharded := *shards != 0 || *shardIdx != -1 || *shardDir != ""
	if *mergeDir != "" {
		if sharded {
			return fmt.Errorf("-merge replays finished shard journals; it conflicts with the worker flags -shards/-shard/-shard-dir")
		}
		if *journalPath != "" || *resume {
			return fmt.Errorf("-merge conflicts with -journal/-resume (the shard directory is the journal)")
		}
	}
	if *partial && *mergeDir == "" {
		return fmt.Errorf("-partial requires -merge (it relaxes the merge, nothing else)")
	}
	if sharded || *mergeDir != "" {
		if len(selected) != 1 {
			return fmt.Errorf("sharded sweeps take exactly one -fig, not %q", *fig)
		}
		// Refused up front, before a worker, launcher or merge touches the
		// shard directory.
		if err := jobs.CheckShardable(selected[0]); err != nil {
			return err
		}
	}
	// Without -shard, -shards launches the sweep: it supervises one worker
	// per slice and then merges the shard directory like -merge.
	launch := sharded && *shardIdx == -1
	worker := sharded && !launch
	if sharded {
		if *shards < 2 {
			return fmt.Errorf("-shards %d (want ≥ 2)", *shards)
		}
		if !launch && (*shardIdx < 0 || *shardIdx >= *shards) {
			return fmt.Errorf("-shard %d out of range [0, %d)", *shardIdx, *shards)
		}
		if *shardDir == "" {
			return fmt.Errorf("-shards requires -shard-dir")
		}
		if *journalPath != "" {
			return fmt.Errorf("-journal conflicts with -shard-dir (the shard journal lives in the shard directory)")
		}
		base.Fig = selected[0]
	}

	var rowJournal *runstate.Journal
	var slice shard.Slice   // the rows this process computes (zero: all)
	var label, rerun string // the row journal, and how to continue it once interrupted
	if worker || *journalPath != "" {
		// The fingerprint pins the workload identity: resuming under a
		// different -apps/-procs/-seed is refused rather than silently
		// mixing incompatible rows.
		fp, err := shard.WorkloadFingerprint(base.Apps, base.Procs, base.Seed)
		if err != nil {
			return err
		}
		if worker {
			// The manifest pins (workload, figure, shard count); a worker
			// whose flags disagree with an existing manifest is refused
			// before it can write a single row into the wrong sweep.
			m := shard.Manifest{FP: fp, Fig: base.Fig, Shards: *shards,
				Apps: base.Apps, Procs: base.Procs, Seed: base.Seed}
			rowJournal, err = shard.OpenSlice(*shardDir, m, *shardIdx, *resume)
			slice = shard.Slice{Index: *shardIdx, Count: *shards}
			label = fmt.Sprintf("shard %d/%d", *shardIdx, *shards)
			rerun = "rerun " + label + " with -resume"
		} else {
			rowJournal, err = runstate.Open(*journalPath, fp, *resume)
			label, rerun = *journalPath, "rerun with -resume -journal "+*journalPath
		}
		if err != nil {
			return err
		}
	}
	if j := rowJournal; j != nil {
		defer j.Close()
		if reg != nil {
			reg.GaugeFunc("journal_rows_restored", func() float64 { return float64(j.Restored()) })
			reg.GaugeFunc("journal_rows_appended", func() float64 { return float64(j.Appended()) })
		}
		if *resume && j.Restored() > 0 {
			fmt.Fprintf(stderr, "paperbench: resuming %s: %d journaled rows restored\n", label, j.Restored())
		}
	}
	if worker {
		// Liveness lease: heartbeats while this worker computes, released
		// on clean exit. The launcher reads its mtime to tell a working
		// worker from a wedged one. Advisory — the journal flock above is
		// the actual mutual exclusion — so a lease that cannot be created
		// is reported, not fatal.
		if lease, lerr := shard.AcquireLease(*shardDir, *shardIdx, *shards, 0); lerr != nil {
			fmt.Fprintln(stderr, "paperbench: worker lease:", lerr)
		} else {
			defer lease.Release()
		}
		// A worker always traces, whether or not -trace asked for a local
		// file: its snapshot lands next to its journal so a later merge can
		// stitch the whole fleet into one timeline. The snapshot is written
		// on every exit path — an interrupted worker still leaves its
		// partial lane behind.
		if tracer == nil {
			tracer = obs.NewTracer()
		}
		tracer.SetProcessLabel(fmt.Sprintf("shard %d/%d", *shardIdx, *shards))
		defer func() {
			if err := shard.WriteSliceTrace(*shardDir, *shardIdx, *shards, tracer); err != nil {
				fmt.Fprintln(stderr, "paperbench: worker trace snapshot:", err)
			}
		}()
	}
	mergeFrom := *mergeDir
	if launch {
		mergeFrom = *shardDir
	}

	// The figures run in order with the process instruments, so -serve,
	// -trace and -metrics observe all of them in one place.
	inst := jobs.Instruments{Tracer: tracer, Metrics: reg, Progress: prog, Log: lg}

	for i, name := range selected {
		if i > 0 {
			fmt.Fprintln(w)
		}
		start := time.Now()
		spec := base
		spec.Fig = name
		var art jobs.Artifacts
		var err error
		if launch {
			// Launch mode computes in worker subprocesses; the merge below
			// then reads their journals exactly as -merge does.
			err = launchSweep(ctx, spec, *shards, *shardDir, prog)
		}
		switch {
		case err != nil:
		case mergeFrom != "":
			// Merge mode: reassemble the table from the finished per-shard
			// journals — no computation, byte-identical output.
			// -partial degrades (missing rows as '!') instead of refusing,
			// and leaves incomplete.json next to the journals.
			art, err = jobs.MergeShards(ctx, spec, mergeFrom, inst, *partial)
			if rep, ok := art[jobs.ArtifactIncomplete]; ok && err == nil {
				path := filepath.Join(mergeFrom, jobs.ArtifactIncomplete)
				if werr := fsatomic.WriteFile(path, rep); werr != nil {
					fmt.Fprintln(stderr, "paperbench: incomplete report:", werr)
				} else {
					fmt.Fprintf(stderr, "paperbench: partial merge — gap report written to %s\n", path)
				}
			}
		default:
			// A canceled run still returns its deterministic partial table
			// alongside the error.
			art, err = jobs.RunFigure(ctx, spec, slice, rowJournal, inst)
		}
		elapsed := time.Since(start)
		if _, werr := w.Write(art[jobs.ArtifactTable]); werr != nil && err == nil {
			err = werr
		}
		if err != nil {
			if errors.Is(err, runctl.ErrCanceled) {
				// The partial table is already rendered; make the interrupted
				// run resumable and report over stderr, keeping stdout golden.
				if rowJournal != nil {
					if serr := rowJournal.Sync(); serr != nil {
						fmt.Fprintln(stderr, "paperbench: journal sync:", serr)
					}
					fmt.Fprintf(stderr, "paperbench: interrupted; %d rows journaled — %s to continue\n", rowJournal.Len(), rerun)
				}
			}
			return fmt.Errorf("%s: %w", jobs.FigureTitle(name), err)
		}
		fmt.Fprintf(w, "(%s regenerated in %v)\n", jobs.FigureTitle(name), elapsed.Round(time.Millisecond))
	}

	if *trace != "" {
		if mergeFrom != "" {
			// Merge mode stitches the fleet: this process's merge spans plus
			// every worker snapshot found in the shard directory, one
			// process lane each.
			n, err := writeMergedTrace(*trace, tracer, mergeFrom, lg)
			if err != nil {
				return fmt.Errorf("-trace: %w", err)
			}
			fmt.Fprintf(w, "(trace: merged %d processes into %s)\n", n, *trace)
		} else {
			f, err := os.Create(*trace)
			if err != nil {
				return fmt.Errorf("-trace: %w", err)
			}
			err = tracer.WriteChromeTrace(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return fmt.Errorf("-trace: %w", err)
			}
			fmt.Fprintf(w, "(trace: %d spans written to %s)\n", tracer.SpanCount(), *trace)
		}
	}
	// The counter dump goes to stderr (or a file), never stdout: stdout
	// carries only the golden-compared tables.
	if *metrics || *metricsOut != "" {
		mw := stderr
		if *metricsOut != "" {
			f, err := os.Create(*metricsOut)
			if err != nil {
				return fmt.Errorf("-metrics-out: %w", err)
			}
			defer f.Close()
			mw = f
		}
		fmt.Fprintln(mw, "metrics:")
		if err := reg.WriteText(mw); err != nil {
			return err
		}
	}
	if *serveWait {
		fmt.Fprintln(stderr, "paperbench: run complete; serving until interrupted (-serve-wait)")
		<-ctx.Done()
	}
	return nil
}

// renderProgress starts the throttled stderr status-line renderer and
// returns a function that stops it and clears the line.
func renderProgress(p *obs.Progress, w io.Writer) (stop func()) {
	stopCh := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		width := 0
		draw := func() {
			line := p.Status().StatusLine()
			if line == "" {
				return
			}
			if len(line) > 160 {
				line = line[:160]
			}
			if len(line) > width {
				width = len(line)
			}
			fmt.Fprintf(w, "\r%-*s", width, line)
		}
		for {
			select {
			case <-stopCh:
				if width == 0 {
					// The run finished before the first tick; render the
					// final status once so captured stderr (CI logs, piped
					// output) still records where the time went.
					draw()
				}
				if width > 0 {
					fmt.Fprintf(w, "\r%*s\r", width, "")
				}
				return
			case <-tick.C:
				draw()
			}
		}
	}()
	return func() { close(stopCh); <-done }
}

// writeMergedTrace stitches the merge process's own trace with every
// worker snapshot in the shard directory into one cross-process Chrome
// trace at path (shard.MergeSweepTrace), returning how many process lanes
// it holds.
func writeMergedTrace(path string, tr *obs.Tracer, dir string, lg *obs.Logger) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	n, err := shard.MergeSweepTrace(f, tr, dir, lg)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// splitInts parses a comma-separated list of positive ints. Spaces
// around a token and empty tokens are ignored; any other token is an
// error naming it.
func splitInts(s string) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		n, err := strconv.Atoi(tok)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("-procs: %q is not a positive integer", tok)
		}
		out = append(out, n)
	}
	return out, nil
}
