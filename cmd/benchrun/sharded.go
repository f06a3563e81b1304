package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// sharded-6c: each op is one sharded Fig. 6c sweep through paperbench —
// two worker processes started together on a fresh shard directory, then
// the merge. Its rows are cheap (paperbench seed 9 designs in about 0.2 s
// on one core), so process start, manifests, leases, per-shard journals,
// trace snapshots and the merge make up much of each op. The sweep is the
// same on every run: its cost varies tenfold between paperbench seeds,
// which would swamp the orchestration the workload is there to measure.
var shardedArgs = []string{"-fig", "6c", "-apps", "1", "-procs", "20", "-seed", "9"}

const shards = 2

// timingLine matches the wall-time line paperbench prints after a table.
var timingLine = regexp.MustCompile(`(?m)^\((.*) regenerated in [^)]*\)$`)

func maskTiming(out []byte) []byte {
	return timingLine.ReplaceAll(out, []byte("($1 regenerated in DUR)"))
}

// sweepResult is what one sharded sweep observed.
type sweepResult struct {
	merged   []byte    // the merged table, timing line masked
	workerMs []float64 // wall time of each worker, start to exit
	mergeMs  float64
	dirBytes int64
	peakMB   float64 // largest worker's peak RSS
}

func runSharded(ctx context.Context, w workload, e *env) (*result, error) {
	r := newResult(w, e)
	pb := filepath.Join(e.bin, "paperbench")
	var ref []byte
	n := 0
	_, setupS, err := setUp(e, func() (struct{}, error) {
		// The reference: the same sweep in one process.
		out, err := runCommand(ctx, pb, append(shardedArgs, "-workers", "1")...)
		if err != nil {
			return struct{}{}, err
		}
		ref = maskTiming(out)
		n++
		dir := filepath.Join(e.work, fmt.Sprintf("warmup-%d", n))
		sw, err := sweep(ctx, pb, dir)
		os.RemoveAll(dir)
		if err != nil {
			return struct{}{}, fmt.Errorf("warm-up sweep: %w", err)
		}
		if !bytes.Equal(sw.merged, ref) {
			r.problem("sharded warm-up: merged table differs from the single-process run:\n%s\nwant:\n%s", sw.merged, ref)
		}
		return struct{}{}, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	r.Digest = digest([]string{string(ref)})

	var (
		seen  []sweepResult
		peaks []float64
	)
	op := func(ctx context.Context, i int) (time.Duration, error) {
		dir := filepath.Join(e.work, fmt.Sprintf("sweep-%d", i))
		t0 := time.Now()
		sw, err := sweep(ctx, pb, dir)
		t := time.Since(t0)
		os.RemoveAll(dir)
		if err != nil {
			return t, err
		}
		seen = append(seen, sw)
		peaks = append(peaks, sw.peakMB)
		if !bytes.Equal(sw.merged, ref) {
			return t, fmt.Errorf("merged table differs from the single-process run:\n%s", sw.merged)
		}
		return t, nil
	}
	u0 := sampleUsage()
	d, maxOps := e.limits(0)
	st := closedLoop(ctx, loopSpec{cycle: 1, d: d, maxOps: maxOps, probe: e.probe}, op)
	u1 := sampleUsage()
	r.count(st)
	// The workers' heaps cannot be read from outside, so alloc_mb_per_op
	// here is the heap this process allocates to drive one sweep.
	timedE2E(e, r, st, u1.cpu-u0.cpu, u1.alloc-u0.alloc, median(peaks), setupS)

	var slowest, skew, merge, dirSize []float64
	for _, sw := range seen {
		lo, hi := sw.workerMs[0], sw.workerMs[0]
		for _, t := range sw.workerMs {
			lo, hi = min(lo, t), max(hi, t)
		}
		slowest = append(slowest, hi)
		skew = append(skew, hi/lo)
		merge = append(merge, sw.mergeMs)
		dirSize = append(dirSize, float64(sw.dirBytes))
	}
	m := r.Metrics
	m.set("shard.worker_max_ms", median(slowest), len(seen))
	m.set("shard.worker_skew", median(skew), len(seen))
	m.set("shard.merge_ms", median(merge), len(seen))
	m.set("shard.dir_bytes", median(dirSize), len(seen))
	return r, nil
}

// sweep runs one sharded sweep in dir: all workers at once, then the
// merge.
func sweep(ctx context.Context, pb, dir string) (sweepResult, error) {
	var sw sweepResult
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return sw, err
	}
	sw.workerMs = make([]float64, shards)
	peaks := make([]float64, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	t0 := time.Now()
	for s := 0; s < shards; s++ {
		args := append([]string{"-shards", strconv.Itoa(shards), "-shard", strconv.Itoa(s), "-shard-dir", dir, "-workers", "1"}, shardedArgs...)
		cmd := exec.CommandContext(ctx, pb, args...)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		if err := cmd.Start(); err != nil {
			errs[s] = err
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			if err := cmd.Wait(); err != nil {
				errs[s] = fmt.Errorf("shard %d: %v: %s", s, err, out.Bytes())
			}
			sw.workerMs[s] = msSince(t0)
			peaks[s] = peakRSSMB(cmd.ProcessState)
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return sw, err
		}
		sw.peakMB = max(sw.peakMB, peaks[s])
	}
	t1 := time.Now()
	out, err := runCommand(ctx, pb, append([]string{"-merge", dir}, shardedArgs...)...)
	if err != nil {
		return sw, err
	}
	sw.mergeMs = msSince(t1)
	sw.merged = maskTiming(out)
	sw.dirBytes = dirBytes(dir)
	return sw, nil
}

// runCommand runs a program to completion and returns its standard
// output.
func runCommand(ctx context.Context, name string, args ...string) ([]byte, error) {
	cmd := exec.CommandContext(ctx, name, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s %v: %v: %s", filepath.Base(name), args, err, stderr.Bytes())
	}
	return out, nil
}

// peakRSSMB is a finished process's peak resident set size.
func peakRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) * 1024 / mib
	}
	return 0
}
