package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"slices"
	"time"
)

// processStart approximates the start of this process: package variables
// are initialized before main runs.
var processStart = time.Now()

// env is what one workload process gets from its parent.
type env struct {
	seed     int64
	seconds  int
	trace    bool
	nproc    int
	bin      string // directory holding the ftesd and paperbench binaries
	work     string // scratch directory owned by this process
	traceOut string // where the traced pass writes its Chrome trace ("" = nowhere)
	probe    *speedProbe

	// Test knobs; zero values select the benchmark's settings.
	ops    int // run exactly this many ops per pass instead of timing for seconds
	setups int // set-ups per run (default 9)
	reps   int // repetitions of the traced pass's side measurements (default 5)
}

// limits returns how long a pass measures and the most ops it may issue,
// given the workload's own cap (0 = none).
func (e *env) limits(capOps int) (time.Duration, int) {
	if e.ops > 0 {
		return forever, e.ops
	}
	return time.Duration(e.seconds) * time.Second, capOps
}

// forever stands for "no time limit" in closedLoop.
const forever = time.Duration(math.MaxInt64)

func (e *env) setupCount() int {
	if e.setups > 0 {
		return e.setups
	}
	return 9
}

func (e *env) repCount() int {
	if e.reps > 0 {
		return e.reps
	}
	return 5
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// why the workload is in the benchmark (one line; BENCHMARK.json
	// carries the same text).
	why string
	// tailPct is the percentile latency_tail_ms reports: the highest with
	// at least ten samples beyond it at the op count of a default run.
	tailPct float64
	// bins are the repository binaries the workload starts.
	bins []string
	run  func(ctx context.Context, w workload, e *env) (*result, error)
}

var workloads = []workload{
	{
		name:    "cc-design",
		why:     "core.Run(OPT) on the paper's cruise controller: the heaviest OPT path, with hardening search, tabu mapping, SFP and scheduling and no reuse across ops",
		tailPct: 90,
		run:     runCC,
	},
	{
		name:    "fig6-sweep",
		why:     "48 synthetic apps of 20 and 40 processes under MIN, MAX and OPT at a Fig. 6a point: the architecture loop and pruning, with two thirds of runs skipping the hardening search",
		tailPct: 90,
		run:     runFig6,
	},
	{
		name:    "ftesd-jobs",
		why:     "small MIN design jobs through the ftesd HTTP API with -state on and 25% resubmits: HTTP, job queue, content addressing and journal fsyncs dominate",
		tailPct: 99,
		bins:    []string{"ftesd"},
		run:     runFtesd,
	},
	{
		name:    "sharded-6c",
		why:     "a 2-shard paperbench Fig. 6c sweep and merge per op: process spawn, manifests, leases, per-shard journals, trace snapshots and the merge",
		tailPct: 75,
		bins:    []string{"paperbench"},
		run:     runSharded,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is what one pass of one workload reports; the parent process
// prints it and appends it to the record.
type result struct {
	Workload  string `json:"workload"`
	Trace     bool   `json:"trace"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Problems names every failed check that is not an op: wrong set-up
	// answers, a layer sum that does not add up.
	Problems []string  `json:"problems,omitempty"`
	TailPct  float64   `json:"tail_pct,omitempty"`
	Metrics  metricSet `json:"metrics"`
	// Digest summarizes the outputs a run checked, for comparing runs of
	// one seed across commits.
	Digest      string    `json:"digest,omitempty"`
	LatenciesMs []float64 `json:"latencies_ms,omitempty"`
	TraceFile   string    `json:"trace_file,omitempty"`
	// SpeedScale is the factor the timed pass's times were scaled by
	// (speedProbe.scale); dividing by it gives the raw measurement.
	// ProbeMs are the probe times it was computed from.
	SpeedScale float64   `json:"speed_scale,omitempty"`
	ProbeMs    []float64 `json:"probe_ms,omitempty"`
}

func newResult(w workload, e *env) *result {
	return &result{Workload: w.name, Trace: e.trace, TailPct: w.tailPct, Metrics: metricSet{}}
}

func (r *result) correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

// problem records a failed check once, however often it recurs.
func (r *result) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if !slices.Contains(r.Problems, msg) {
		fmt.Fprintln(os.Stderr, "benchrun: check failed:", msg)
		r.Problems = append(r.Problems, msg)
	}
}

// count adds a pass's ops to the result's totals.
func (r *result) count(st loopStats) {
	r.Attempted += st.ops()
	r.Failed += st.failures()
}

// setUp runs a workload's set-up e.setupCount() times and returns the last
// instance with the median set-up time in seconds. The first set-up is
// timed from process start, the others from the end of the previous one;
// every instance but the last is torn down before the next set-up starts,
// outside the timing.
func setUp[T any](e *env, build func() (T, error), teardown func(T)) (T, float64, error) {
	var (
		inst  T
		times []float64
	)
	start := processStart
	for i := 0; i < e.setupCount(); i++ {
		if i > 0 && teardown != nil {
			teardown(inst)
		}
		if i > 0 {
			start = time.Now()
		}
		var err error
		if inst, err = build(); err != nil {
			return inst, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return inst, median(times), nil
}
