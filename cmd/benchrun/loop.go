package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"syscall"
	"time"
)

// opFunc runs operation i, checks its output, and returns the latency the
// benchmark charges it with.
type opFunc func(ctx context.Context, i int) (time.Duration, error)

// loopSpec says how long a pass runs and what it samples besides op
// latencies.
type loopSpec struct {
	cycle  int           // ops per pass over the workload's inputs
	d      time.Duration // measure at least this long, in whole passes
	maxOps int           // issue no more than this many ops (0 = no cap)
	probe  *speedProbe   // samples the host's speed between ops (nil = none)
	rss    bool          // record this process's peak RSS during each op
}

// loopStats is the outcome of one pass.
type loopStats struct {
	latMs  []float64 // latency of op i
	failed []bool    // op i errored or failed its check
	wall   time.Duration
	rssMB  []float64 // peak RSS during op i (loopSpec.rss)
}

func (l loopStats) ops() int { return len(l.latMs) }

func (l loopStats) failures() int {
	n := 0
	for _, f := range l.failed {
		if f {
			n++
		}
	}
	return n
}

// closedLoop runs ops one after another, each issued when the previous one
// completed: one closed-loop client. Ops are issued until s.d has elapsed,
// and then to the end of the current pass over the inputs, so a run covers
// whole multiples of s.cycle: the inputs a run measures are the same on
// every commit, only how many passes it makes may differ. Time spent in
// speed probes is not part of the wall time.
func closedLoop(ctx context.Context, s loopSpec, op opFunc) loopStats {
	cycle := max(s.cycle, 1)
	var st loopStats
	var probeTime time.Duration
	sample := func() {
		if s.probe == nil {
			return
		}
		t := time.Now()
		if err := s.probe.maybe(); err != nil {
			fmt.Fprintln(os.Stderr, "benchrun:", err)
		}
		probeTime += time.Since(t)
	}
	sample()
	start := time.Now()
	deadline := start.Add(s.d)
	for i := 0; ctx.Err() == nil && (s.maxOps == 0 || i < s.maxOps); i++ {
		if i%cycle == 0 && i > 0 && !time.Now().Before(deadline) {
			break
		}
		if s.rss {
			resetPeakRSS()
		}
		t, err := op(ctx, i)
		st.latMs = append(st.latMs, float64(t)/float64(time.Millisecond))
		st.failed = append(st.failed, err != nil)
		if err != nil && st.failures() <= 5 {
			fmt.Fprintf(os.Stderr, "benchrun: op %d: %v\n", i, err)
		}
		if s.rss {
			st.rssMB = append(st.rssMB, procPeakRSSMB(os.Getpid()))
		}
		sample()
	}
	st.wall = time.Since(start) - probeTime
	return st
}

// usage is a snapshot of this process's resource counters.
type usage struct {
	cpu      time.Duration // user+sys of this process and of its waited-for children
	alloc    uint64        // bytes allocated on the Go heap so far
	gcCPU    float64       // runtime/metrics GC CPU seconds
	totalCPU float64       // runtime/metrics total CPU seconds
}

func sampleUsage() usage {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return usage{
		cpu:      rusageCPU(&self) + rusageCPU(&kids),
		alloc:    ms.TotalAlloc,
		gcCPU:    floatSample(s[0]),
		totalCPU: floatSample(s[1]),
	}
}

func floatSample(s metrics.Sample) float64 {
	if s.Value.Kind() == metrics.KindFloat64 {
		return s.Value.Float64()
	}
	return 0
}

func rusageCPU(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mib is the size of the MB the benchmark reports memory in.
const mib = 1 << 20

// procPeakRSSMB reads a live process's peak resident set size (VmHWM).
func procPeakRSSMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	_, rest, _ := bytes.Cut(b, []byte("VmHWM:"))
	line, _, _ := bytes.Cut(rest, []byte("\n"))
	kb, _ := strconv.ParseFloat(string(bytes.TrimSpace(bytes.TrimSuffix(bytes.TrimSpace(line), []byte("kB")))), 64)
	return kb * 1024 / mib
}

// resetPeakRSS restarts this process's VmHWM from its current RSS.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// gcFrac is the share of this process's CPU time spent in the garbage
// collector between two snapshots.
func gcFrac(a, b usage) float64 {
	if b.totalCPU <= a.totalCPU {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / (b.totalCPU - a.totalCPU)
}

// timedE2E fills the end-to-end metrics of a timed pass. cpu and alloc
// are the totals the workload charges to the pass; peakMB is the peak RSS
// of the process doing the work. Times are scaled to the reference host
// speed (speedScale).
func timedE2E(e *env, r *result, st loopStats, cpu time.Duration, alloc uint64, peakMB, setupS float64) {
	r.SpeedScale = e.probe.scale()
	if e.probe != nil {
		r.ProbeMs = e.probe.samples
	}
	n, k, m := st.ops(), r.SpeedScale, r.Metrics
	m.set("latency_p50_ms", k*median(st.latMs), n)
	m.set("latency_tail_ms", k*percentile(st.latMs, r.TailPct), n)
	m.set("throughput_ops_s", float64(n)/st.wall.Seconds()/k, n)
	m.set("cpu_ms_per_op", k*float64(cpu)/float64(time.Millisecond)/float64(n), n)
	m.set("alloc_mb_per_op", float64(alloc)/mib/float64(n), n)
	m.set("peak_rss_mb", peakMB, 1)
	m.set("setup_s", k*setupS, e.setupCount())
	m.set(failFrac.name, float64(st.failures())/float64(n), n)
	r.LatenciesMs = st.latMs
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}
