// Command benchrun is the repository's benchmark. It runs four workloads
// against the code of the checkout it is started from — design latency on
// the cruise controller, a Fig. 6 batch, ftesd job round-trips and sharded
// paperbench sweeps — checks every output against known answers, prints
// every end-to-end metric with its unit and sample count, and in a
// separate traced pass attributes each op's time to the program's layers.
// Every invocation appends one JSON record; "benchrun compare A B" judges
// two sets of records against the bounds in BENCHMARK.json.
//
// From the repository root:
//
//	bash cmd/benchrun/run.sh -seed 1                  # all workloads, timed and traced
//	bash cmd/benchrun/run.sh --workload cc-design --seed 3 --seconds 20 --trace 0
//	bash cmd/benchrun/run.sh compare base.jsonl change.jsonl
//
// README.md lists the workloads, the metrics and their bounds.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	if os.Getenv(probeEnv) == "1" {
		serveProbes()
		return
	}
	args := os.Args[1:]
	var code int
	switch {
	case len(args) > 0 && args[0] == "compare":
		code = compareMain(args[1:], os.Stdout, os.Stderr)
	case len(args) > 0 && args[0] == "child":
		code = childMain(args[1:], os.Stdout, os.Stderr)
	default:
		code = parentMain(args, os.Stdout, os.Stderr)
	}
	os.Exit(code)
}

// childTimeout bounds one workload process, so a run ends within three
// minutes even when the program under test hangs.
const childTimeout = 160 * time.Second

// parentMain builds the binaries the selected workloads start, runs each
// workload pass in a fresh child process, prints and records the results.
func parentMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", "all", "comma-separated workloads to run, or all: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "how long each pass measures (whole passes over a workload's inputs, so it may run a little longer)")
	trace := fs.Int("trace", -1, "0 = timed pass only, 1 = traced pass only, -1 = both")
	out := fs.String("out", "", "append the run's JSON record to this file (default ROOT/.bench_build/benchrun.jsonl)")
	rootFlag := fs.String("root", "", "repository root (default: found from the working directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchrun:", err)
		return 1
	}
	var passes []bool
	switch *trace {
	case -1:
		passes = []bool{false, true}
	case 0, 1:
		passes = []bool{*trace == 1}
	default:
		return fail(fmt.Errorf("-trace %d: want 0, 1 or -1", *trace))
	}
	if *seconds < 1 {
		return fail(fmt.Errorf("-seconds %d: want at least 1", *seconds))
	}
	var selected []workload
	for _, name := range strings.Split(*names, ",") {
		if name == "all" {
			selected = append(selected, workloads...)
			continue
		}
		w, ok := findWorkload(name)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q (want %s)", name, workloadNames()))
		}
		selected = append(selected, w)
	}
	root, err := findRoot(*rootFlag)
	if err != nil {
		return fail(err)
	}
	buildDir := filepath.Join(root, ".bench_build")
	if *out == "" {
		*out = filepath.Join(buildDir, "benchrun.jsonl")
	}

	// Build what the workloads start before anything is timed.
	binDir := filepath.Join(buildDir, "bin")
	built := map[string]bool{}
	for _, w := range selected {
		for _, b := range w.bins {
			if !built[b] {
				built[b] = true
				if err := goBuild(root, binDir, b, stderr); err != nil {
					return fail(err)
				}
			}
		}
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return fail(err)
	}
	work, err := os.MkdirTemp(buildDir, "work-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(work)
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}

	rec := newRecord(root, *seed, *seconds)
	for _, w := range selected {
		for _, traced := range passes {
			args := []string{"child", "-workload", w.name, "-seed", strconv.FormatInt(*seed, 10),
				"-seconds", strconv.Itoa(*seconds), "-bin", binDir,
				"-work", filepath.Join(work, fmt.Sprintf("%s-%t", w.name, traced))}
			if traced {
				base := strings.TrimSuffix(filepath.Base(*out), filepath.Ext(*out))
				args = append(args, "-trace", "-trace-out",
					filepath.Join(filepath.Dir(*out), fmt.Sprintf("%s-%s-seed%d.trace.json", base, w.name, *seed)))
			}
			res, err := runChild(self, args, stderr)
			if err != nil {
				return fail(fmt.Errorf("%s: %w", w.name, err))
			}
			printResult(stdout, res, *seed)
			rec.Results = append(rec.Results, res)
		}
	}
	if err := appendRecord(*out, rec); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "record appended to %s\n", *out)

	correct := true
	for _, res := range rec.Results {
		correct = correct && res.correct()
	}
	if len(rec.Results) == 1 {
		// The machine-readable summary of a single pass, last on stdout.
		res := rec.Results[0]
		defs := endToEnd
		if res.Trace {
			defs = layerMetrics
		}
		type value struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}
		ms := map[string]value{}
		for _, d := range defs {
			ms[d.name] = value{res.Metrics[d.name].Value, d.unit}
		}
		line, err := json.Marshal(struct {
			Correct   bool             `json:"correct"`
			Attempted int              `json:"attempted"`
			Failed    int              `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}{res.correct(), res.Attempted, res.Failed, ms})
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if !correct {
		fmt.Fprintln(stderr, "benchrun: FAILED: some outputs were wrong (see above)")
		return 1
	}
	return 0
}

func workloadNames() string {
	var s []string
	for _, w := range workloads {
		s = append(s, w.name)
	}
	return strings.Join(s, ", ")
}

// findRoot returns the repository root: dir when given, otherwise the
// nearest directory at or above the working directory whose go.mod
// declares module repro.
func findRoot(dir string) (string, error) {
	isRoot := func(d string) bool {
		b, err := os.ReadFile(filepath.Join(d, "go.mod"))
		return err == nil && bytes.HasPrefix(b, []byte("module repro\n"))
	}
	if dir != "" {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return "", err
		}
		if !isRoot(abs) {
			return "", fmt.Errorf("%s is not the repository root (no go.mod declaring module repro)", abs)
		}
		return abs, nil
	}
	d, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if isRoot(d) {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no repository root (go.mod declaring module repro) above the working directory")
		}
		d = parent
	}
}

// goBuild builds ./cmd/<name> of the repository into dir.
func goBuild(root, dir, name string, stderr io.Writer) error {
	cmd := exec.Command("go", "build", "-o", filepath.Join(dir, name), "./cmd/"+name)
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = stderr, stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build %s: %w", name, err)
	}
	return nil
}

// runChild runs one workload pass in a fresh process — its own process
// group, so the daemon and workers it starts are stopped with it — and
// decodes the result it prints.
func runChild(self string, args []string, stderr io.Writer) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	cmd.WaitDelay = 5 * time.Second
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	err := cmd.Run()
	if cmd.Process != nil {
		// Anything the child left running goes with it.
		_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
	}
	if ctx.Err() != nil {
		return nil, fmt.Errorf("workload process did not finish within %v", childTimeout)
	}
	if err != nil {
		return nil, fmt.Errorf("workload process: %w", err)
	}
	var res result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("workload process output: %w", err)
	}
	return &res, nil
}

func printResult(w io.Writer, res *result, seed int64) {
	pass := "timed pass"
	if res.Trace {
		pass = "traced pass"
	}
	status := "outputs correct"
	if !res.correct() {
		status = fmt.Sprintf("FAILED: %d failed ops, %d failed checks", res.Failed, len(res.Problems))
	}
	fmt.Fprintf(w, "%s — %s, seed %d: %d ops, %s\n", res.Workload, pass, seed, res.Attempted, status)
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  check failed: %s\n", p)
	}
	for _, name := range res.Metrics.names() {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-30s %14.6g %-6s (%d samples)\n", name, m.Value, m.Unit, m.Samples)
	}
	if res.Digest != "" {
		fmt.Fprintf(w, "  digest %s\n", res.Digest)
	}
	if res.TraceFile != "" {
		fmt.Fprintf(w, "  trace %s\n", res.TraceFile)
	}
}

// childMain runs one pass of one workload and prints its result as JSON.
func childMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchrun child", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload")
	e := &env{nproc: runtime.NumCPU()}
	fs.Int64Var(&e.seed, "seed", 1, "workload seed")
	fs.IntVar(&e.seconds, "seconds", 20, "measurement time")
	fs.BoolVar(&e.trace, "trace", false, "run the traced pass")
	fs.StringVar(&e.bin, "bin", "", "directory of the built binaries")
	fs.StringVar(&e.work, "work", "", "scratch directory")
	fs.StringVar(&e.traceOut, "trace-out", "", "Chrome trace of the traced pass")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || e.work == "" {
		fmt.Fprintf(stderr, "benchrun child: need a known -workload and -work\n")
		return 2
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchrun:", err)
		return 1
	}
	res, err := runPass(context.Background(), w, e)
	if err != nil {
		fmt.Fprintf(stderr, "benchrun: %s: %v\n", w.name, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "benchrun:", err)
		return 1
	}
	return 0
}

// runPass runs a workload and keeps the metrics of its pass: the
// end-to-end ones (with fail_frac) for the timed pass, the layer ones for
// the traced pass, every listed metric present.
func runPass(ctx context.Context, w workload, e *env) (*result, error) {
	if !e.trace {
		p, err := startSpeedProbe()
		if err != nil {
			return nil, err
		}
		defer p.close()
		e.probe = p
	}
	res, err := w.run(ctx, w, e)
	if err != nil {
		return nil, err
	}
	defs := timedMetrics
	if e.trace {
		defs = layerMetrics
		res.LatenciesMs = nil
	}
	kept := metricSet{}
	for _, d := range defs {
		if m, ok := res.Metrics[d.name]; ok {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				m.Value = 0 // no samples: nothing to report
			}
			kept[d.name] = m
		}
	}
	kept.fill(defs)
	res.Metrics = kept
	return res, nil
}
