package main

// Self-healing sweep supervisor (-heal): the chaos-tolerant front end of
// sharded sweeps. The supervisor re-execs itself once per shard as a
// worker subprocess (-shards/-shard/-shard-dir -resume), watches worker
// exits and lease heartbeats, and restarts dead or wedged workers with
// capped exponential backoff until every slice's journal is complete —
// then merges in-process and prints the table, byte-identical to a clean
// unsharded run. Each restart resumes the slice's journal, so every
// attempt strictly shrinks the remaining work and convergence needs only
// that a worker occasionally survives long enough to journal one row.

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/jobs"
	"repro/internal/retry"
	"repro/internal/runctl"
	"repro/internal/shard"
)

// healConfig parameterizes one supervised sweep.
type healConfig struct {
	spec       jobs.Spec // base spec with Fig set, shard coordinates zero
	shards     int
	dir        string
	attempts   int // worker (re)starts allowed per shard
	staleAfter time.Duration
	inst       jobs.Instruments
	trace      string // -trace output path ("" = none)
}

// slot states of one supervised shard.
const (
	slotBackoff = iota // waiting to (re)spawn
	slotRunning
	slotDone
)

type healSlot struct {
	state    int
	attempts int       // spawns so far
	next     time.Time // earliest respawn (slotBackoff)
	started  time.Time // last spawn (slotRunning)
	cmd      *exec.Cmd
}

// workerExit is one worker subprocess finishing, however it died.
type workerExit struct {
	idx int
	err error // nil = exit 0
}

// runHeal supervises the sweep to completion and writes the merged table
// (and timing line, same stdout shape as a clean run) to w.
func runHeal(ctx context.Context, w io.Writer, cfg healConfig) error {
	start := time.Now()
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("-heal: locate own binary: %w", err)
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return fmt.Errorf("-heal: shard dir: %w", err)
	}

	ph := cfg.inst.Progress.Phase("heal.workers")
	ph.SetTotal(int64(cfg.shards))

	slots := make([]healSlot, cfg.shards)
	now := time.Now()
	for i := range slots {
		slots[i] = healSlot{state: slotBackoff, next: now}
	}
	// Deterministically jittered backoff between restarts of one slice;
	// the budget itself is checked against cfg.attempts below.
	pol := retry.Policy{MaxAttempts: cfg.attempts, BaseDelay: 200 * time.Millisecond, MaxDelay: 3 * time.Second}

	exits := make(chan workerExit, cfg.shards)
	spawn := func(i int) error {
		sl := &slots[i]
		sl.attempts++
		args := workerArgs(cfg.spec, i, cfg.shards, cfg.dir)
		cmd := exec.Command(exe, args...)
		cmd.Stdout = io.Discard // the worker's partial table; only journals matter
		cmd.Stderr = stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("-heal: start shard %d/%d worker: %w", i, cfg.shards, err)
		}
		sl.state = slotRunning
		sl.started = time.Now()
		sl.cmd = cmd
		fmt.Fprintf(stderr, "paperbench: heal: shard %d/%d worker pid %d up (attempt %d/%d)\n",
			i, cfg.shards, cmd.Process.Pid, sl.attempts, cfg.attempts)
		go func(i int, cmd *exec.Cmd) { exits <- workerExit{i, cmd.Wait()} }(i, cmd)
		return nil
	}

	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	for {
		now := time.Now()
		alive := 0
		for i := range slots {
			sl := &slots[i]
			switch sl.state {
			case slotDone:
				continue
			case slotBackoff:
				if !now.Before(sl.next) {
					if err := spawn(i); err != nil {
						killAll(slots)
						return err
					}
				}
			case slotRunning:
				// Wedged-worker detection: a live process whose lease
				// heartbeat went quiet is stuck (deadlock, unkillable I/O);
				// replace it like a dead one. The age guard keeps a freshly
				// spawned worker (lease not yet written) off the radar.
				if now.Sub(sl.started) > cfg.staleAfter {
					if stale, info := shard.LeaseStale(cfg.dir, i, cfg.shards, cfg.staleAfter); stale && info.PID == sl.cmd.Process.Pid {
						fmt.Fprintf(stderr, "paperbench: heal: shard %d/%d worker pid %d wedged (lease stale), replacing\n",
							i, cfg.shards, info.PID)
						_ = sl.cmd.Process.Kill()
					}
				}
			}
			alive++
		}
		if alive == 0 {
			break
		}
		select {
		case <-ctx.Done():
			killAll(slots)
			return fmt.Errorf("-heal: %w", runctl.Err(ctx))
		case we := <-exits:
			sl := &slots[we.idx]
			sl.cmd = nil
			if we.err == nil {
				sl.state = slotDone
				ph.Add(1)
				fmt.Fprintf(stderr, "paperbench: heal: shard %d/%d complete\n", we.idx, cfg.shards)
				continue
			}
			if sl.attempts >= cfg.attempts {
				killAll(slots)
				return fmt.Errorf("-heal: shard %d/%d still failing after %d attempts: %w",
					we.idx, cfg.shards, sl.attempts, we.err)
			}
			delay := pol.Delay(sl.attempts)
			sl.state = slotBackoff
			sl.next = time.Now().Add(delay)
			fmt.Fprintf(stderr, "paperbench: heal: shard %d/%d worker died (%v), restarting in %v\n",
				we.idx, cfg.shards, we.err, delay.Round(time.Millisecond))
		case <-tick.C:
		}
	}
	ph.Done()

	// Every journal is complete: merge in-process, byte-identical to a
	// clean run of the same spec.
	art, err := jobs.MergeShards(ctx, cfg.spec, cfg.dir, cfg.inst)
	if err != nil {
		return fmt.Errorf("-heal: merge after convergence: %w", err)
	}
	if _, err := w.Write(art[jobs.ArtifactTable]); err != nil {
		return err
	}
	fmt.Fprintf(w, "(%s regenerated in %v)\n", jobs.FigureTitle(cfg.spec.Fig), time.Since(start).Round(time.Millisecond))
	if cfg.trace != "" {
		n, terr := writeMergedTrace(cfg.trace, cfg.inst.Tracer, cfg.dir, cfg.inst.Log)
		if terr != nil {
			return fmt.Errorf("-trace: %w", terr)
		}
		fmt.Fprintf(w, "(trace: merged %d processes into %s)\n", n, cfg.trace)
	}
	return nil
}

// workerArgs renders the re-exec flag set of one shard worker. Note the
// supervisor passes `-shards N -shard i` while itself running with
// `-heal -shards N` and no -shard: external chaos scripts can target
// workers alone by matching the "-shard <idx>" pair.
func workerArgs(spec jobs.Spec, idx, shards int, dir string) []string {
	procs := make([]string, len(spec.Procs))
	for i, p := range spec.Procs {
		procs[i] = strconv.Itoa(p)
	}
	args := []string{
		"-fig", spec.Fig,
		"-apps", strconv.Itoa(spec.Apps),
		"-procs", strings.Join(procs, ","),
		"-seed", strconv.FormatInt(spec.Seed, 10),
		"-shards", strconv.Itoa(shards),
		"-shard", strconv.Itoa(idx),
		"-shard-dir", dir,
		"-resume",
	}
	if spec.Workers != 0 {
		args = append(args, "-workers", strconv.Itoa(spec.Workers))
	}
	if spec.AppTimeout > 0 {
		args = append(args, "-app-timeout", spec.AppTimeout.String())
	}
	return args
}

// killAll hard-stops every still-running worker (supervisor giving up or
// interrupted; their journals stay resumable for the next attempt).
func killAll(slots []healSlot) {
	for i := range slots {
		if slots[i].state == slotRunning && slots[i].cmd != nil && slots[i].cmd.Process != nil {
			_ = slots[i].cmd.Process.Signal(syscall.SIGKILL)
		}
	}
}
