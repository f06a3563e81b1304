package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/retry"
	"repro/internal/runctl"
	"repro/internal/runstate"
	"repro/internal/shard"
)

// ErrClosed is returned by Submit once the scheduler is shutting down.
var ErrClosed = errors.New("jobs: scheduler closed")

// stateFingerprint binds the scheduler's state journal to this layout.
const stateFingerprint = "ftes-jobs-state-v1"

// retainedTraces is how many of the most recently finished jobs keep
// their Tracer. An older job's tracer is released, so a long-lived daemon
// holds a bounded number of traces; its metrics and progress stay.
const retainedTraces = 16

// testRunHook, when non-nil, runs kindTest jobs; scheduler tests use it
// to control execution timing deterministically. Never set in production.
var testRunHook func(ctx context.Context, j *Job) (Artifacts, error)

// Options configures a Scheduler.
type Options struct {
	// Workers bounds how many jobs run concurrently (min 1).
	Workers int
	// Dir, when non-empty, makes the scheduler durable: submissions and
	// completions are journaled to Dir/state.jsonl, figure jobs journal
	// their rows to Dir/rows-<id>.jsonl, and a new Scheduler over the same
	// Dir restores completed results and re-enqueues every job that was
	// queued or running when the previous process died.
	Dir string
	// Metrics, when non-nil, receives the scheduler's own instruments:
	// jobs.submitted/completed/failed/canceled/interrupted/dedup_hits
	// counters, jobs.queue_depth and jobs.running gauges, and the
	// jobs.queue_wait submit→start latency histogram.
	Metrics *obs.Registry
	// Log receives scheduler lifecycle records (nil disables logging).
	Log *obs.Logger
	// Events, when non-nil, receives the fleet lifecycle event stream:
	// job submitted/started/done/failed/canceled/interrupted, dedup hits,
	// resumes, panics recovered. A durable scheduler first emits the
	// history its state journal records (see recover), so the stream
	// survives restarts without a journal of its own.
	Events *obs.EventLog
	// Retry, when non-nil, is the self-healing policy: a job failing with
	// a retryable error (retry.IsRetryable — torn journal writes, ENOSPC)
	// is re-enqueued after a backoff delay instead of going terminal,
	// until the policy's attempt budget is spent. Attempt counts are
	// journaled in state.jsonl so restarts never reset a budget. A
	// permanent error, or an exhausted budget, quarantines the job:
	// terminal until a human calls Retry, with job.quarantined in the
	// event log. Nil keeps the pre-self-healing behavior: every failure
	// is terminal.
	Retry *retry.Policy
}

// Job is one scheduled exploration. All mutable fields are guarded by
// the owning scheduler's mutex; artifacts and err are immutable once the
// done channel closes.
type Job struct {
	s       *Scheduler
	id      string
	spec    Spec
	timeout time.Duration
	obs     Instruments

	state        string
	userCanceled bool
	cancel       context.CancelFunc // set while running
	submits      int
	// attempts counts runs started across the job's whole durable life,
	// monotonic even across manual retries (journaled as try| rows).
	// budgetBase is the attempt count the current budget window started
	// at: Retry (manual un-quarantine) and a resubmission move it forward
	// so the policy's MaxAttempts applies per window, while the history
	// stays monotonic. completions counts the job's journaled
	// completions; it numbers their done| rows.
	attempts    int
	budgetBase  int
	completions int
	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time

	artifacts Artifacts
	err       error
	done      chan struct{}

	// slice is the shard count of a sweep slice an older daemon journaled
	// (0 otherwise). Spec has no shard coordinates, so the restored spec
	// reads as the whole sweep; the job fails instead of running it.
	slice int
}

// ID returns the job's content fingerprint.
func (j *Job) ID() string { return j.id }

// Instruments returns the job's observability hooks; ftesd mounts
// obshttp handlers over them for per-job /metrics, /progress and /trace.
// Tracer is nil once the job has left the window of the retainedTraces
// most recently finished jobs.
func (j *Job) Instruments() Instruments {
	j.s.mu.Lock()
	defer j.s.mu.Unlock()
	return j.obs
}

// Handle is a submitter's reference to a (possibly shared) job.
type Handle struct {
	s *Scheduler
	j *Job
	// joined is set when Submit deduplicated onto an existing job; it is
	// decided under the scheduler lock, so of N concurrent identical
	// submissions exactly one is not a join.
	joined bool
}

// ID returns the job's content fingerprint.
func (h *Handle) ID() string { return h.j.id }

// Job returns the underlying job.
func (h *Handle) Job() *Job { return h.j }

// Joined reports whether the Submit that returned h joined an existing
// job with the same fingerprint instead of enqueueing a new one.
func (h *Handle) Joined() bool { return h.joined }

// Done returns a channel closed when the job finishes.
func (h *Handle) Done() <-chan struct{} { return h.j.done }

// Wait blocks until the job finishes or ctx is canceled, returning the
// job's artifacts and error. A canceled job returns its deterministic
// partial artifacts alongside the runctl.ErrCanceled-wrapped error.
func (h *Handle) Wait(ctx context.Context) (Artifacts, error) {
	if ctx != nil {
		select {
		case <-h.j.done:
		case <-ctx.Done():
			return nil, runctl.Err(ctx)
		}
	} else {
		<-h.j.done
	}
	return h.j.artifacts, h.j.err
}

// Status snapshots the job.
func (h *Handle) Status() Status { return h.s.status(h.j) }

// Scheduler runs jobs from one FIFO queue on a bounded worker pool.
// Create one with New and stop it with Close.
type Scheduler struct {
	opts   Options
	log    *obs.Logger
	events *obs.EventLog

	mu      sync.Mutex
	cond    *sync.Cond
	jobs    map[string]*Job
	queue   []*Job // waiting jobs in submission order
	closing bool
	resumed int

	// traced holds the retainedTraces most recently finished jobs, oldest
	// at tracedNext; see retireLocked.
	traced     [retainedTraces]*Job
	tracedNext int

	wg    sync.WaitGroup
	state *runstate.Journal

	mSubmitted, mDedup, mCompleted, mFailed, mCanceled, mInterrupted *obs.Counter
	mRetried, mQuarantined                                           *obs.Counter
	hQueueWait                                                       *obs.Histogram
	gRunning                                                         *obs.Gauge
}

// submitRecord is the durable form of one accepted submission.
type submitRecord struct {
	Spec    Spec  `json:"spec"`
	Timeout int64 `json:"timeout_ns,omitempty"`
}

// doneRecord is the durable form of one completion. Keyed
// done|<id>|<n>, n counting the job's completions: a failed or canceled
// job can be resubmitted and complete again, and the journal dedups
// repeated keys. Journals written before the count carry done|<id>.
type doneRecord struct {
	Artifacts map[string][]byte `json:"artifacts,omitempty"`
	Err       string            `json:"err,omitempty"`
	Canceled  bool              `json:"canceled,omitempty"`
}

// quarRecord is the durable form of one quarantine: the error that spent
// the attempt budget. Keyed quar|<id>|<attempts> — the attempt count makes
// the key unique per quarantine, since the journal dedups repeated keys.
type quarRecord struct {
	Err      string `json:"err,omitempty"`
	Attempts int    `json:"attempts"`
}

// New builds a scheduler, restores its durable state when Options.Dir is
// set (completed jobs resolve immediately; interrupted ones re-enqueue),
// and starts the worker pool.
func New(o Options) (*Scheduler, error) {
	if o.Workers < 1 {
		o.Workers = 1
	}
	reg := o.Metrics
	if reg == nil {
		// Private registry: the instruments always exist, they just are
		// not exported anywhere.
		reg = obs.NewRegistry()
	}
	s := &Scheduler{
		opts:   o,
		log:    o.Log,
		events: o.Events,
		jobs:   make(map[string]*Job),

		mSubmitted:   reg.Counter("jobs.submitted"),
		mDedup:       reg.Counter("jobs.dedup_hits"),
		mCompleted:   reg.Counter("jobs.completed"),
		mFailed:      reg.Counter("jobs.failed"),
		mCanceled:    reg.Counter("jobs.canceled"),
		mInterrupted: reg.Counter("jobs.interrupted"),
		mRetried:     reg.Counter("jobs.retries"),
		mQuarantined: reg.Counter("jobs.quarantined"),
		hQueueWait:   reg.Histogram("jobs.queue_wait"),
		gRunning:     reg.Gauge("jobs.running"),
	}
	s.cond = sync.NewCond(&s.mu)
	reg.GaugeFunc("jobs.queue_depth", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.queue))
	})
	if o.Dir != "" {
		if err := os.MkdirAll(o.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("jobs: state dir: %w", err)
		}
		st, err := runstate.Open(filepath.Join(o.Dir, "state.jsonl"), stateFingerprint, true)
		if err != nil {
			return nil, err
		}
		s.state = st
		s.recover()
	}
	for i := 0; i < o.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// recover replays the state journal in file order. Each row restores the
// transition it records: done jobs become resolved entries, quarantined
// jobs come back quarantined (with their attempt history, so a restart
// never resets a budget), and jobs submitted but never completed are
// re-enqueued in their original submission order. Each row also emits
// the event its transition implies, marked replayed because its t_ms is
// this restart's clock: the state journal is the one record of the
// fleet's history, and the event log is rebuilt from it.
func (s *Scheduler) recover() {
	type entry struct {
		rec                         submitRecord
		slice                       int
		attempts, base, completions int
		done                        *doneRecord // the last completion while terminal
		quar                        string      // error text while quarantined
	}
	byID := map[string]*entry{}
	var order []string
	replay := func(typ, id string, fields map[string]any) {
		if s.events == nil {
			return
		}
		if fields == nil {
			fields = map[string]any{}
		}
		fields["replayed"] = true
		s.events.Emit(typ, id, fields)
	}
	for _, r := range s.state.RestoredRows() {
		kind, rest, _ := strings.Cut(r.Key, "|")
		id, n, numbered := splitAttemptKey(rest)
		if !numbered {
			id = rest // job|<id>, or a done|<id> row of an older journal
		}
		if kind == "job" {
			var rec submitRecord
			var legacy struct {
				Spec struct {
					ShardCount int `json:"shard_count"`
				} `json:"spec"`
			}
			if jsonUnmarshal(r.Data, &rec) && jsonUnmarshal(r.Data, &legacy) {
				byID[id] = &entry{rec: rec, slice: legacy.Spec.ShardCount}
				order = append(order, id)
				replay("job.submitted", id, eventFields(rec.Spec))
			}
			continue
		}
		e := byID[id]
		if e == nil {
			continue // no submission row: nothing to restore it onto
		}
		switch kind {
		case "try":
			// A new attempt makes the job live again, even after a
			// completion: it was resubmitted and its run did not finish.
			e.attempts = max(e.attempts, n)
			e.done, e.quar = nil, ""
			f := eventFields(e.rec.Spec)
			f["attempt"] = n
			replay("job.started", id, f)
		case "done":
			var rec doneRecord
			if !jsonUnmarshal(r.Data, &rec) {
				continue
			}
			e.completions++
			e.done, e.quar = &rec, ""
			switch {
			case rec.Canceled:
				replay("job.canceled", id, nil)
			case rec.Err != "":
				replay("job.failed", id, map[string]any{"error": rec.Err})
			default:
				replay("job.done", id, nil)
			}
		case "quar":
			var rec quarRecord
			e.quar = "quarantined by a previous run"
			if jsonUnmarshal(r.Data, &rec) && rec.Err != "" {
				e.quar = rec.Err
			}
			replay("job.quarantined", id, map[string]any{"attempts": n, "error": e.quar})
		case "retry":
			e.base, e.quar = n, ""
			replay("job.retried", id, map[string]any{"attempts": n})
		}
	}
	for _, id := range order {
		e := byID[id]
		j := s.newJob(id, e.rec.Spec, time.Duration(e.rec.Timeout))
		j.attempts, j.budgetBase, j.completions = e.attempts, e.base, e.completions
		j.slice = e.slice
		s.jobs[id] = j
		switch {
		case e.done != nil:
			j.artifacts = Artifacts(e.done.Artifacts)
			switch {
			case e.done.Canceled:
				j.state = StateCanceled
				j.err = fmt.Errorf("%w: %s", runctl.ErrCanceled, e.done.Err)
			case e.done.Err != "":
				j.state = StateFailed
				j.err = errors.New(e.done.Err)
			default:
				j.state = StateDone
			}
		case e.quar != "":
			j.state = StateQuarantined
			j.err = errors.New(e.quar)
		default:
			s.resumed++
			s.enqueueLocked(j)
			s.log.Info("job resumed from state journal", "job", id, "kind", e.rec.Spec.Kind, "fig", e.rec.Spec.Fig)
			s.events.Emit("job.resumed", id, eventFields(e.rec.Spec))
			continue
		}
		s.retireLocked(j)
		close(j.done)
	}
}

// splitAttemptKey parses the "<id>|<n>" tail of a try|/done|/quar|/retry|
// state row key.
func splitAttemptKey(rest string) (id string, n int, ok bool) {
	i := strings.LastIndexByte(rest, '|')
	if i < 1 {
		return "", 0, false
	}
	v, err := strconv.Atoi(rest[i+1:])
	if err != nil {
		return "", 0, false
	}
	return rest[:i], v, true
}

// Resumed reports how many in-flight jobs the state journal re-enqueued
// at startup.
func (s *Scheduler) Resumed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resumed
}

// newJob builds a Job (caller inserts it under s.mu where needed).
func (s *Scheduler) newJob(id string, spec Spec, timeout time.Duration) *Job {
	return &Job{
		s:       s,
		id:      id,
		spec:    spec,
		timeout: timeout,
		obs: Instruments{
			Tracer:   obs.NewTracer(),
			Metrics:  obs.NewRegistry(),
			Progress: obs.NewProgress(),
			Log:      s.log,
			Events:   s.events.Scoped(id),
		},
		state:       StateQueued,
		submits:     1,
		submittedAt: time.Now(),
		done:        make(chan struct{}),
	}
}

// Submit enqueues the spec (or joins the existing job with the same
// fingerprint) and returns a handle on it. timeout bounds the job's run
// (0 = none); expiry surfaces as runctl.ErrCanceled wrapping
// context.DeadlineExceeded, with the deterministic partial artifacts
// every canceled run produces. The timeout is not part of the job's
// content-addressed identity.
func (s *Scheduler) Submit(spec Spec, timeout time.Duration) (*Handle, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	id, err := spec.Fingerprint()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	var prev *Job
	if j, ok := s.jobs[id]; ok {
		switch j.state {
		case StateFailed, StateCanceled:
			// A terminal non-success does not poison the fingerprint:
			// resubmitting runs the spec again. The fresh job below replaces
			// the dead one in the index and continues its attempt and
			// completion counts, so its try| and done| rows get new keys.
			prev = j
		default:
			submits := j.submits + 1
			j.submits = submits
			s.mu.Unlock()
			s.mDedup.Add(1)
			s.log.Info("job deduplicated", "job", id, "submits", submits)
			s.events.Emit("job.dedup", id, map[string]any{"submits": submits})
			return &Handle{s: s, j: j, joined: true}, nil
		}
	}
	j := s.newJob(id, spec, timeout)
	if prev != nil {
		j.attempts, j.budgetBase, j.completions = prev.attempts, prev.attempts, prev.completions
	}
	s.jobs[id] = j
	s.mu.Unlock()

	if s.state != nil {
		// Durability before visibility: the submission is on disk before
		// the job can run, so a crash between accept and completion always
		// re-enqueues it.
		rec := submitRecord{Spec: spec, Timeout: int64(timeout)}
		if err := s.state.Record("job|"+id, rec); err != nil {
			s.mu.Lock()
			delete(s.jobs, id)
			s.mu.Unlock()
			return nil, err
		}
	}
	s.mSubmitted.Add(1)
	s.log.Info("job submitted", "job", id, "kind", spec.Kind, "fig", spec.Fig)
	s.events.Emit("job.submitted", id, eventFields(spec))

	s.mu.Lock()
	if s.closing {
		// Lost the race with Close: fail the submission rather than leave
		// a job no worker will ever pick up.
		delete(s.jobs, id)
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.enqueueLocked(j)
	s.mu.Unlock()
	return &Handle{s: s, j: j}, nil
}

// enqueueLocked appends j to the queue. Caller holds s.mu.
func (s *Scheduler) enqueueLocked(j *Job) {
	s.queue = append(s.queue, j)
	s.cond.Signal()
}

// next blocks until a job is available or the scheduler closes (nil).
func (s *Scheduler) next() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closing {
			return nil
		}
		if len(s.queue) > 0 {
			j := s.queue[0]
			s.queue[0] = nil // the backing array must not pin a finished job
			s.queue = s.queue[1:]
			return j
		}
		s.cond.Wait()
	}
}

// worker is one pool goroutine: pick, run, repeat until close.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		j := s.next()
		if j == nil {
			return
		}
		s.runJob(j)
	}
}

// runJob executes one job and publishes its completion.
func (s *Scheduler) runJob(j *Job) {
	start := time.Now()
	ctx, cancel := context.WithCancel(context.Background())
	s.mu.Lock()
	if j.userCanceled {
		// Canceled while queued and not yet reaped by Cancel itself —
		// complete it without running anything.
		s.mu.Unlock()
		cancel()
		s.completeJob(j, nil, fmt.Errorf("%w: canceled before start", runctl.ErrCanceled))
		return
	}
	// The job becomes running and cancelable in one step, so a Cancel or
	// Close that sees it running always reaches its run. A Close that got
	// in first (after this worker dequeued it) interrupts it at once.
	j.state = StateRunning
	j.cancel = cancel
	if s.closing {
		cancel()
	}
	j.startedAt = start
	j.attempts++
	attempt := j.attempts
	s.mu.Unlock()
	if s.state != nil {
		// The attempt lands on disk before the run starts, so a crashed
		// attempt still spends budget after a restart. Best-effort: a
		// journal hiccup here must not block the run it describes.
		if rerr := s.state.Record(fmt.Sprintf("try|%s|%d", j.id, attempt), struct{}{}); rerr != nil {
			s.log.Error("attempt not journaled", "job", j.id, "attempt", attempt, "err", rerr.Error())
		}
	}
	s.gRunning.Set(s.gRunning.Value() + 1)
	s.hQueueWait.Observe(start.Sub(j.submittedAt))
	s.log.Info("job start", "job", j.id, "kind", j.spec.Kind, "fig", j.spec.Fig, "queue_wait", start.Sub(j.submittedAt), "attempt", attempt)
	startedFields := eventFields(j.spec)
	startedFields["attempt"] = attempt
	s.events.Emit("job.started", j.id, startedFields)

	runCtx := ctx
	var cancelTimeout context.CancelFunc
	if j.timeout > 0 {
		runCtx, cancelTimeout = context.WithTimeout(ctx, j.timeout)
	}

	artifacts, err := s.execute(runCtx, j)

	if cancelTimeout != nil {
		cancelTimeout()
	}
	cancel()
	s.gRunning.Set(s.gRunning.Value() - 1)
	s.completeJob(j, artifacts, err)
}

// execute dispatches to the job's runner with panic isolation: a panic
// inside a runner fails the job, not the scheduler.
func (s *Scheduler) execute(ctx context.Context, j *Job) (art Artifacts, err error) {
	defer runctl.Recover(fmt.Sprintf("jobs %s runner (job %s)", j.spec.Kind, j.id), &err)
	if j.slice != 0 {
		return nil, fmt.Errorf("jobs: job %s is a slice of a %d-way sharded sweep, which Spec no longer expresses; shard sweeps with paperbench -shards", j.id, j.slice)
	}
	switch j.spec.Kind {
	case KindFigure:
		var rowJ *runstate.Journal
		if s.opts.Dir != "" {
			// The row journal is keyed by the job fingerprint, so it can
			// only ever resume the spec that wrote it.
			rj, jerr := runstate.Open(filepath.Join(s.opts.Dir, "rows-"+j.id+".jsonl"), j.id, true)
			if jerr != nil {
				return nil, jerr
			}
			defer rj.Close()
			rowJ = rj
		}
		return RunFigure(ctx, j.spec, shard.Slice{}, rowJ, j.obs)
	case KindDesign:
		return runDesign(ctx, j.spec, j.obs)
	case kindTest:
		if testRunHook != nil {
			return testRunHook(ctx, j)
		}
		return nil, fmt.Errorf("jobs: test job without hook")
	default:
		return nil, fmt.Errorf("jobs: unknown job kind %q", j.spec.Kind)
	}
}

// completeJob records the outcome (unless the job was interrupted by a
// shutdown, in which case it stays in-flight for the next scheduler over
// the same state dir) and wakes every waiter.
func (s *Scheduler) completeJob(j *Job, artifacts Artifacts, err error) {
	s.mu.Lock()
	closing := s.closing
	userCanceled := j.userCanceled
	s.mu.Unlock()

	// A cooperative cancellation that the submitter did not ask for — a
	// scheduler shutdown — leaves the job interrupted: its completion is
	// not journaled, so a durable scheduler resumes it on the next start.
	interrupted := err != nil && errors.Is(err, runctl.ErrCanceled) &&
		!userCanceled && closing
	// A user cancel the run ended on counts as canceled, live and in the
	// journal alike; a run that failed on its own error stays failed.
	canceled := userCanceled && errors.Is(err, runctl.ErrCanceled)

	// Self-healing disposition. With a retry policy configured, a failure
	// that is neither an interruption nor a user cancel goes one of two
	// ways instead of terminal-failed: retryable with budget left →
	// backoff and re-enqueue; permanent or exhausted → quarantine, held
	// for a human to Retry.
	if err != nil && !interrupted && !userCanceled && s.opts.Retry != nil && s.opts.Retry.MaxAttempts > 1 {
		p := s.opts.Retry
		s.mu.Lock()
		used := j.attempts - j.budgetBase
		s.mu.Unlock()
		if retry.IsRetryable(err) && !p.Exhausted(used) {
			s.scheduleRetry(j, err, p.Delay(used))
			return
		}
		s.quarantine(j, artifacts, err)
		return
	}

	if !interrupted && s.state != nil {
		rec := doneRecord{Artifacts: artifacts, Canceled: canceled}
		if err != nil {
			rec.Err = err.Error()
		}
		s.mu.Lock()
		j.completions++
		n := j.completions
		s.mu.Unlock()
		if rerr := s.state.Record(fmt.Sprintf("done|%s|%d", j.id, n), rec); rerr != nil {
			s.log.Error("job completion not journaled", "job", j.id, "err", rerr.Error())
		}
	}

	s.mu.Lock()
	j.artifacts = artifacts
	j.err = err
	j.finishedAt = time.Now()
	switch {
	case interrupted:
		j.state = StateInterrupted
	case err == nil:
		j.state = StateDone
	case canceled:
		j.state = StateCanceled
	default:
		j.state = StateFailed
	}
	state := j.state
	s.retireLocked(j)
	s.mu.Unlock()

	var pe *runctl.PanicError
	if errors.As(err, &pe) {
		s.events.Emit("panic.recovered", j.id, map[string]any{
			"where": pe.Where, "value": fmt.Sprint(pe.Value),
		})
	}
	switch state {
	case StateDone:
		s.mCompleted.Add(1)
		s.log.Info("job done", "job", j.id, "elapsed", j.finishedAt.Sub(j.startedAt))
		s.events.Emit("job.done", j.id, map[string]any{
			"elapsed_ms": j.finishedAt.Sub(j.startedAt).Milliseconds(),
		})
	case StateCanceled:
		s.mCanceled.Add(1)
		s.log.Info("job canceled", "job", j.id)
		s.events.Emit("job.canceled", j.id, nil)
	case StateInterrupted:
		s.mInterrupted.Add(1)
		s.log.Info("job interrupted", "job", j.id)
		s.events.Emit("job.interrupted", j.id, nil)
	default:
		s.mFailed.Add(1)
		s.log.Error("job failed", "job", j.id, "err", err.Error())
		s.events.Emit("job.failed", j.id, map[string]any{"error": err.Error()})
	}
	// Waiters wake only after the terminal event is in the log, so a
	// waiter that resubmits at once logs its job.dedup after it.
	close(j.done)
}

// retireLocked releases what a job that just reached a terminal state no
// longer needs. A design job's problem document goes, except under
// quarantine: Retry re-runs a quarantined job's spec, and nothing else
// reads a spec after its run. And the job enters the window of the
// retainedTraces most recently finished jobs, pushing the oldest one out
// of it and releasing that job's Tracer. Caller holds s.mu.
func (s *Scheduler) retireLocked(j *Job) {
	if j.state != StateQuarantined {
		j.spec.Design = nil
	}
	if old := s.traced[s.tracedNext]; old != nil {
		old.obs.Tracer = nil
	}
	s.traced[s.tracedNext] = j
	s.tracedNext = (s.tracedNext + 1) % retainedTraces
}

// scheduleRetry re-enqueues j after a backoff delay. The job's done
// channel stays open — waiters keep waiting across the whole retry
// sequence and only ever observe the final outcome — and the failure is
// not journaled as a completion, so a crash mid-backoff resumes the job
// on restart (the journaled try| rows keep the budget honest).
func (s *Scheduler) scheduleRetry(j *Job, cause error, delay time.Duration) {
	s.mu.Lock()
	j.state = StateQueued
	j.cancel = nil
	j.err = cause // visible in Status while the backoff runs
	attempt := j.attempts
	s.mu.Unlock()
	s.mRetried.Add(1)
	s.log.Info("job retry scheduled", "job", j.id, "attempt", attempt, "delay", delay, "err", cause.Error())
	s.events.Emit("job.retry", j.id, map[string]any{
		"attempt": attempt, "delay_ms": delay.Milliseconds(), "error": cause.Error(),
	})
	time.AfterFunc(delay, func() { s.requeueRetry(j, cause) })
}

// requeueRetry fires when a retry backoff elapses: normally the job goes
// back in its queue; under a shutdown it completes interrupted (resumed
// by the next scheduler over the same state dir); after a user cancel it
// completes canceled.
func (s *Scheduler) requeueRetry(j *Job, cause error) {
	s.mu.Lock()
	switch {
	case s.closing:
		s.mu.Unlock()
		s.completeJob(j, nil, fmt.Errorf("%w: retry interrupted by shutdown: %s", runctl.ErrCanceled, cause))
	case j.userCanceled:
		s.mu.Unlock()
		s.completeJob(j, nil, fmt.Errorf("%w: canceled during retry backoff", runctl.ErrCanceled))
	default:
		s.enqueueLocked(j)
		s.mu.Unlock()
	}
}

// quarantine parks j terminally-but-revivably: the outcome is journaled
// as a quar| row (not a done| completion, so the submission stays live in
// the state journal and a restart re-quarantines rather than re-runs),
// waiters are released with the error, and Retry can re-open the budget.
func (s *Scheduler) quarantine(j *Job, artifacts Artifacts, err error) {
	s.mu.Lock()
	j.artifacts = artifacts
	j.err = err
	j.finishedAt = time.Now()
	j.state = StateQuarantined
	attempts := j.attempts
	s.retireLocked(j)
	s.mu.Unlock()
	if s.state != nil {
		rec := quarRecord{Err: err.Error(), Attempts: attempts}
		if rerr := s.state.Record(fmt.Sprintf("quar|%s|%d", j.id, attempts), rec); rerr != nil {
			s.log.Error("quarantine not journaled", "job", j.id, "err", rerr.Error())
		}
	}
	s.mQuarantined.Add(1)
	s.log.Error("job quarantined", "job", j.id, "attempts", attempts, "err", err.Error())
	s.events.Emit("job.quarantined", j.id, map[string]any{
		"attempts": attempts, "error": err.Error(),
	})
	close(j.done) // after the event, as in completeJob
}

// Retry un-quarantines a job: the same spec re-enqueues with a fresh
// attempt budget window. The attempt history stays monotonic — the new
// window simply starts at the current count — and the retry| state row
// makes both the un-quarantine and the window survive restarts.
func (s *Scheduler) Retry(id string) (*Handle, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("jobs: no job %s", id)
	}
	if j.state != StateQuarantined {
		s.mu.Unlock()
		return nil, fmt.Errorf("jobs: job %s is %s, not quarantined", id, j.state)
	}
	if s.closing {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	// Fresh Job (the old done channel already closed; waiters saw the
	// quarantine), same identity and submission parameters.
	nj := s.newJob(id, j.spec, j.timeout)
	nj.attempts = j.attempts
	nj.budgetBase = j.attempts
	nj.completions = j.completions
	nj.submits = j.submits + 1
	s.jobs[id] = nj
	s.mu.Unlock()

	if s.state != nil {
		if rerr := s.state.Record(fmt.Sprintf("retry|%s|%d", id, nj.budgetBase), struct{}{}); rerr != nil {
			s.log.Error("retry not journaled", "job", id, "err", rerr.Error())
		}
	}
	s.log.Info("job retried from quarantine", "job", id, "attempts", nj.attempts)
	s.events.Emit("job.retried", id, map[string]any{"attempts": nj.attempts})

	s.mu.Lock()
	if s.closing {
		// Lost the race with Close: put the quarantined entry back so the
		// job is not left queued for a pool that has stopped.
		s.jobs[id] = j
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.enqueueLocked(nj)
	s.mu.Unlock()
	return &Handle{s: s, j: nj}, nil
}

// eventFields condenses a spec into the detail fields its lifecycle
// events carry.
func eventFields(spec Spec) map[string]any {
	f := map[string]any{"kind": spec.Kind}
	if spec.Fig != "" {
		f["fig"] = spec.Fig
	}
	return f
}

// Get returns a handle on the job with the given id.
func (s *Scheduler) Get(id string) (*Handle, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return &Handle{s: s, j: j}, true
}

// Cancel cooperatively cancels a job: a queued job completes immediately
// as canceled; a running one stops at its next row boundary with its
// partial artifacts. It reports whether a live job was found.
func (s *Scheduler) Cancel(id string) bool {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok || j.state == StateDone || j.state == StateFailed || j.state == StateCanceled || j.state == StateInterrupted || j.state == StateQuarantined {
		s.mu.Unlock()
		return false
	}
	j.userCanceled = true
	if j.state == StateQueued {
		// Reap it from the queue so a worker never picks it up. When a
		// worker already dequeued it (but has not started it yet), leave
		// completion to that worker's userCanceled check — completing from
		// both sides would double-close the done channel.
		for i, other := range s.queue {
			if other == j {
				s.queue = append(s.queue[:i:i], s.queue[i+1:]...)
				s.mu.Unlock()
				s.completeJob(j, nil, fmt.Errorf("%w: canceled while queued", runctl.ErrCanceled))
				return true
			}
		}
	}
	cancel := j.cancel
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return true
}

// List snapshots every known job in submission order.
func (s *Scheduler) List() []Status {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool {
		if jobs[a].submittedAt.Equal(jobs[b].submittedAt) {
			return jobs[a].id < jobs[b].id
		}
		return jobs[a].submittedAt.Before(jobs[b].submittedAt)
	})
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = s.status(j)
	}
	return out
}

// status snapshots one job under the scheduler lock.
func (s *Scheduler) status(j *Job) Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		ID:          j.id,
		Kind:        j.spec.Kind,
		Fig:         j.spec.Fig,
		State:       j.state,
		Submits:     j.submits,
		Attempts:    j.attempts,
		SubmittedAt: j.submittedAt,
		StartedAt:   j.startedAt,
		FinishedAt:  j.finishedAt,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	for name := range j.artifacts {
		st.Artifacts = append(st.Artifacts, name)
	}
	sort.Strings(st.Artifacts)
	return st
}

// Close stops the scheduler: running jobs are cooperatively canceled (and
// left interrupted, so a durable scheduler resumes them), queued jobs
// stay queued in the state journal, and workers are waited for until ctx
// expires. A nil ctx waits without bound.
func (s *Scheduler) Close(ctx context.Context) error {
	s.mu.Lock()
	alreadyClosing := s.closing
	s.closing = true
	for _, j := range s.jobs {
		if j.state == StateRunning && j.cancel != nil {
			j.cancel()
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	if ctx != nil {
		select {
		case <-done:
		case <-ctx.Done():
			return fmt.Errorf("jobs: close: %w", ctx.Err())
		}
	} else {
		<-done
	}
	if !alreadyClosing && s.state != nil {
		return s.state.Close()
	}
	return nil
}

// jsonUnmarshal decodes data into v, reporting success; a malformed state
// row is skipped rather than fatal (the journal CRC already screens real
// corruption — this guards against version skew).
func jsonUnmarshal(data []byte, v any) bool {
	return json.Unmarshal(data, v) == nil
}

// jsonMarshalIndent renders v as pretty-printed JSON with a trailing
// newline (the shape `curl | jq`-free users expect from an artifact).
func jsonMarshalIndent(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
