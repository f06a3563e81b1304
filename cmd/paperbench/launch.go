package main

// Sweep launcher (-shards N -shard-dir D without -shard): the one command
// that runs a sharded sweep end to end. The launcher re-execs itself once
// per slice as a worker subprocess (-shards/-shard/-shard-dir -resume),
// watches worker exits and lease heartbeats, and restarts dead or wedged
// workers with capped exponential backoff until every slice's journal is
// complete; run then merges the directory exactly as -merge does. Each
// restart resumes the slice's journal, so an attempt that journals one
// row strictly shrinks the remaining work. The restart budget is measured
// progress, not a count: a slice is given up only after
// maxStalledAttempts consecutive attempts that journaled no row.

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/retry"
	"repro/internal/runctl"
	"repro/internal/shard"
)

// maxStalledAttempts is how many consecutive worker attempts of one slice
// may end without journaling a new row before the launcher gives up.
const maxStalledAttempts = 8

// wedgedAfter is how long a running worker may go without being spawned
// or heartbeating its lease before the launcher kills and replaces it.
// A variable so tests can tighten it.
var wedgedAfter = 10 * shard.DefaultLeaseInterval

// launchBackoff paces the restarts of one slice, keyed on its stalled
// streak. A variable so tests can tighten it.
var launchBackoff = retry.Policy{BaseDelay: 200 * time.Millisecond, MaxDelay: 3 * time.Second}

// launchSlot is one slice's worker, running or waiting to (re)spawn.
type launchSlot struct {
	cmd     *exec.Cmd // the running worker; nil while backing off or done
	done    bool
	spawns  int
	stalled int       // consecutive attempts that journaled no new row
	rows    int       // valid rows in the slice journal after the last attempt
	next    time.Time // earliest respawn while backing off
	started time.Time // last spawn (or wedge kill) of the running worker
}

// workerExit is one worker subprocess finishing, however it died.
type workerExit struct {
	idx int
	err error // nil = exit 0
}

// launchSweep runs every slice of spec (Fig set, shard coordinates zero)
// to completion in dir, one worker subprocess per slice.
func launchSweep(ctx context.Context, spec jobs.Spec, shards int, dir string, prog *obs.Progress) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate own binary: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("shard dir: %w", err)
	}

	ph := prog.Phase("shard.workers")
	ph.SetTotal(int64(shards))

	slots := make([]launchSlot, shards)
	// Giving up or interrupted: hard-stop whatever still runs. The slice
	// journals stay resumable for the next launch.
	defer func() {
		for _, sl := range slots {
			if sl.cmd != nil {
				_ = sl.cmd.Process.Kill()
			}
		}
	}()
	// One slot per slice: at most shards workers run at once, so a wait
	// goroutine never blocks, even after the launcher has returned.
	exits := make(chan workerExit, shards)
	spawn := func(i int) error {
		sl := &slots[i]
		sl.spawns++
		cmd := exec.Command(exe, workerArgs(spec, i, shards, dir)...)
		cmd.Stdout = io.Discard // the worker's partial table; only journals matter
		cmd.Stderr = stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("start shard %d/%d worker: %w", i, shards, err)
		}
		sl.cmd, sl.started = cmd, time.Now()
		fmt.Fprintf(stderr, "paperbench: launch: shard %d/%d worker pid %d up (attempt %d)\n",
			i, shards, cmd.Process.Pid, sl.spawns)
		go func() { exits <- workerExit{i, cmd.Wait()} }()
		return nil
	}

	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	for {
		now := time.Now()
		alive := 0
		for i := range slots {
			sl := &slots[i]
			switch {
			case sl.done:
				continue
			case sl.cmd == nil && !now.Before(sl.next):
				if err := spawn(i); err != nil {
					return err
				}
			case sl.cmd != nil && wedged(dir, i, shards, sl.started, now):
				fmt.Fprintf(stderr, "paperbench: launch: shard %d/%d worker pid %d wedged (no spawn or lease heartbeat in %v), replacing\n",
					i, shards, sl.cmd.Process.Pid, wedgedAfter)
				_ = sl.cmd.Process.Kill() // its exit, however it ends, arrives on exits
				sl.started = now          // one kill per window while the exit lands
			}
			alive++
		}
		if alive == 0 {
			break
		}
		select {
		case <-ctx.Done():
			return runctl.Err(ctx)
		case we := <-exits:
			sl := &slots[we.idx]
			sl.cmd = nil
			if we.err == nil {
				sl.done = true
				ph.Add(1)
				fmt.Fprintf(stderr, "paperbench: launch: shard %d/%d complete\n", we.idx, shards)
				continue
			}
			if rows := shard.JournalRows(dir, we.idx, shards); rows > sl.rows {
				sl.rows, sl.stalled = rows, 0
			} else {
				sl.stalled++
			}
			if sl.stalled >= maxStalledAttempts {
				return fmt.Errorf("shard %d/%d journaled no row in %d consecutive attempts: %w",
					we.idx, shards, sl.stalled, we.err)
			}
			delay := launchBackoff.Delay(sl.stalled + 1)
			sl.next = time.Now().Add(delay)
			fmt.Fprintf(stderr, "paperbench: launch: shard %d/%d worker died (%v), restarting in %v\n",
				we.idx, shards, we.err, delay.Round(time.Millisecond))
		case <-tick.C:
		}
	}
	ph.Done()
	return nil
}

// wedged reports whether a slice's running worker, spawned at started,
// has neither been spawned nor heartbeaten its lease within wedgedAfter.
// The lease mtime is the only evidence read: a worker that never
// created its lease, or that still sits behind a killed predecessor's
// stale lease, counts as wedged once the window passes.
func wedged(dir string, idx, shards int, started, now time.Time) bool {
	last := started
	if beat, err := shard.LeaseBeat(dir, idx, shards); err == nil && beat.After(last) {
		last = beat
	}
	return now.Sub(last) > wedgedAfter
}

// workerArgs renders the re-exec flag set of one shard worker. Note the
// launcher passes `-shards N -shard i` while itself running with
// `-shards N` and no -shard: external chaos scripts can target workers
// alone by matching the "-shard <idx>" pair.
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
