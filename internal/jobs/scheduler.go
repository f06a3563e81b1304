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
)

// ErrClosed is returned by Submit once the scheduler is shutting down.
var ErrClosed = errors.New("jobs: scheduler closed")

// stateFingerprint binds the scheduler's state journal to this layout.
const stateFingerprint = "ftes-jobs-state-v1"

// testRunHook, when non-nil, runs kindTest jobs; scheduler tests use it
// to control execution timing deterministically. Never set in production.
var testRunHook func(ctx context.Context, j *Job) (Artifacts, error)

// testFigRowDone, when non-nil, observes every freshly journaled row of a
// figure job; the crash-resume tests use it to stop the scheduler at
// exact row boundaries.
var testFigRowDone func(jobID, rowKey string)

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
	// resumes, shard starts, panics recovered.
	// ftesd opens a durable log under its state dir so the stream
	// survives restarts; paperbench -serve uses a memory-only log.
	Events *obs.EventLog
	// Retry, when non-nil, is the self-healing policy: a job failing with
	// a retryable error (retry.IsRetryable — torn journal writes, ENOSPC,
	// a slice journal still flock-held by a dying worker) is re-enqueued
	// after a backoff delay instead of going terminal, until the policy's
	// attempt budget is spent. Attempt counts are journaled in state.jsonl
	// so restarts never reset a budget. A permanent error, or an exhausted
	// budget, quarantines the job: terminal until a human calls Retry,
	// with job.quarantined in the event log. Nil keeps the
	// pre-self-healing behavior: every failure is terminal.
	Retry *retry.Policy
}

// Job is one scheduled exploration. All mutable fields are guarded by
// the owning scheduler's mutex; artifacts and err are immutable once the
// done channel closes.
type Job struct {
	id       string
	spec     Spec
	tenant   string
	priority int
	timeout  time.Duration
	seq      int64

	obs        Instruments
	rowJournal *runstate.Journal // submitter-owned; nil → scheduler-owned per-job journal
	parent     context.Context

	state        string
	userCanceled bool
	cancel       context.CancelFunc // set while running
	submits      int
	// attempts counts runs started across the job's whole durable life,
	// monotonic even across manual retries (journaled as try| rows).
	// budgetBase is the attempt count the current budget window started
	// at: Retry (manual un-quarantine) moves it forward so the policy's
	// MaxAttempts applies per window, while the history stays monotonic.
	attempts    int
	budgetBase  int
	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time

	artifacts Artifacts
	err       error
	done      chan struct{}
}

// ID returns the job's content fingerprint.
func (j *Job) ID() string { return j.id }

// Spec returns the job's spec.
func (j *Job) Spec() Spec { return j.spec }

// Instruments returns the job's observability hooks; ftesd mounts
// obshttp handlers over them for per-job /metrics, /progress and /trace.
func (j *Job) Instruments() Instruments { return j.obs }

// SubmitOptions carry everything about a submission that is not part of
// the job's content-addressed identity.
type SubmitOptions struct {
	// Tenant names the fair-share queue the job waits in ("" is a valid
	// tenant). The scheduler serves tenants round-robin, so one tenant's
	// backlog cannot starve another's.
	Tenant string
	// Priority orders jobs within a tenant (higher first, FIFO within a
	// priority).
	Priority int
	// Timeout bounds the job's run (0 = none); expiry surfaces as
	// runctl.ErrCanceled wrapping context.DeadlineExceeded, with the
	// deterministic partial artifacts every canceled run produces.
	Timeout time.Duration
	// Context, when non-nil, parents the job's run context: canceling it
	// cooperatively stops the job. paperbench passes its signal context;
	// daemon submissions leave it nil (jobs outlive HTTP requests).
	Context context.Context
	// Obs, when non-nil, replaces the per-job instruments.
	Obs *Instruments
	// RowJournal, when non-nil, is a caller-owned row journal for figure
	// jobs (paperbench -journal, or a shard worker's jobs.OpenSlice
	// journal); the scheduler then neither opens nor closes a per-job one.
	// A sharded slice (Spec.ShardCount > 1) requires it.
	RowJournal *runstate.Journal
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

// Scheduler runs jobs from a priority + fair-share queue on a bounded
// worker pool. Create one with New and stop it with Close.
type Scheduler struct {
	opts   Options
	log    *obs.Logger
	events *obs.EventLog

	mu         sync.Mutex
	cond       *sync.Cond
	jobs       map[string]*Job
	queues     map[string][]*Job
	ring       []string // tenants in first-seen order
	lastTenant int      // ring index served last
	queued     int
	closing    bool
	seq        int64
	resumed    int

	wg    sync.WaitGroup
	state *runstate.Journal

	mSubmitted, mDedup, mCompleted, mFailed, mCanceled, mInterrupted *obs.Counter
	mRetried, mQuarantined                                           *obs.Counter
	hQueueWait                                                       *obs.Histogram
	gRunning                                                         *obs.Gauge
}

// submitRecord is the durable form of one accepted submission.
type submitRecord struct {
	Spec     Spec   `json:"spec"`
	Tenant   string `json:"tenant,omitempty"`
	Priority int    `json:"priority,omitempty"`
	Timeout  int64  `json:"timeout_ns,omitempty"`
}

// doneRecord is the durable form of one completion.
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
		queues: make(map[string][]*Job),

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
		return float64(s.queued)
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

// recover replays the state journal: done jobs become resolved entries,
// quarantined jobs come back quarantined (with their attempt history, so
// a restart never resets a budget), and jobs submitted but never
// completed are re-enqueued in their original submission order.
func (s *Scheduler) recover() {
	rows := s.state.RestoredRows()
	type pending struct {
		id  string
		rec submitRecord
	}
	var order []pending
	done := map[string]doneRecord{}
	attempts := map[string]int{}
	base := map[string]int{}
	quar := map[string]string{} // id → error text while quarantined
	for _, r := range rows {
		if id, ok := cutPrefix(r.Key, "done|"); ok {
			var rec doneRecord
			if jsonUnmarshal(r.Data, &rec) {
				done[id] = rec
			}
			continue
		}
		if id, ok := cutPrefix(r.Key, "job|"); ok {
			var rec submitRecord
			if jsonUnmarshal(r.Data, &rec) {
				order = append(order, pending{id, rec})
			}
			continue
		}
		// Self-healing rows, replayed in file order so a quarantine after a
		// manual retry lands quarantined, and vice versa.
		if rest, ok := cutPrefix(r.Key, "try|"); ok {
			if id, n, ok := splitAttemptKey(rest); ok && n > attempts[id] {
				attempts[id] = n
			}
			continue
		}
		if rest, ok := cutPrefix(r.Key, "quar|"); ok {
			if id, _, ok := splitAttemptKey(rest); ok {
				var rec quarRecord
				if jsonUnmarshal(r.Data, &rec) && rec.Err != "" {
					quar[id] = rec.Err
				} else {
					quar[id] = "quarantined by a previous run"
				}
			}
			continue
		}
		if rest, ok := cutPrefix(r.Key, "retry|"); ok {
			if id, n, ok := splitAttemptKey(rest); ok {
				base[id] = n
				delete(quar, id)
			}
		}
	}
	for _, p := range order {
		j := s.newJob(p.id, p.rec.Spec, SubmitOptions{
			Tenant:   p.rec.Tenant,
			Priority: p.rec.Priority,
			Timeout:  time.Duration(p.rec.Timeout),
		})
		j.attempts = attempts[p.id]
		j.budgetBase = base[p.id]
		s.jobs[p.id] = j
		if rec, ok := done[p.id]; ok {
			j.state = StateDone
			j.artifacts = Artifacts(rec.Artifacts)
			switch {
			case rec.Canceled:
				j.state = StateCanceled
				j.err = fmt.Errorf("%w: %s", runctl.ErrCanceled, rec.Err)
			case rec.Err != "":
				j.state = StateFailed
				j.err = errors.New(rec.Err)
			}
			close(j.done)
			continue
		}
		if msg, ok := quar[p.id]; ok {
			j.state = StateQuarantined
			j.err = errors.New(msg)
			close(j.done)
			continue
		}
		s.resumed++
		s.enqueueLocked(j)
		s.log.Info("job resumed from state journal", "job", p.id, "kind", p.rec.Spec.Kind, "fig", p.rec.Spec.Fig)
		s.events.Emit("job.resumed", p.id, eventFields(p.rec.Spec))
	}
}

// splitAttemptKey parses the "<id>|<n>" tail of a try|/quar|/retry| state
// row key.
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
func (s *Scheduler) newJob(id string, spec Spec, so SubmitOptions) *Job {
	j := &Job{
		id:          id,
		spec:        spec,
		tenant:      so.Tenant,
		priority:    so.Priority,
		timeout:     so.Timeout,
		parent:      so.Context,
		rowJournal:  so.RowJournal,
		state:       StateQueued,
		submits:     1,
		submittedAt: time.Now(),
		done:        make(chan struct{}),
	}
	if j.parent == nil {
		j.parent = context.Background()
	}
	if so.Obs != nil {
		j.obs = *so.Obs
	} else {
		j.obs = Instruments{
			Tracer:   obs.NewTracer(),
			Metrics:  obs.NewRegistry(),
			Progress: obs.NewProgress(),
			Log:      s.log,
		}
	}
	if j.obs.Events == nil {
		j.obs.Events = s.events.Scoped(id)
	}
	return j
}

// Submit enqueues the spec (or joins the existing job with the same
// fingerprint) and returns a handle on it.
func (s *Scheduler) Submit(spec Spec, so SubmitOptions) (*Handle, error) {
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
	if j, ok := s.jobs[id]; ok {
		switch j.state {
		case StateFailed, StateCanceled:
			// A terminal non-success does not poison the fingerprint:
			// resubmitting runs the spec again (the fresh job below simply
			// replaces the dead one in the index).
			delete(s.jobs, id)
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
	j := s.newJob(id, spec, so)
	s.jobs[id] = j
	s.mu.Unlock()

	if s.state != nil {
		// Durability before visibility: the submission is on disk before
		// the job can run, so a crash between accept and completion always
		// re-enqueues it.
		rec := submitRecord{Spec: spec, Tenant: so.Tenant, Priority: so.Priority, Timeout: int64(so.Timeout)}
		if err := s.state.Record("job|"+id, rec); err != nil {
			s.mu.Lock()
			delete(s.jobs, id)
			s.mu.Unlock()
			return nil, err
		}
	}
	s.mSubmitted.Add(1)
	s.log.Info("job submitted", "job", id, "kind", spec.Kind, "fig", spec.Fig, "tenant", so.Tenant, "priority", so.Priority)
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

// enqueueLocked inserts j into its tenant's queue: higher priority first,
// FIFO within a priority. Caller holds s.mu.
func (s *Scheduler) enqueueLocked(j *Job) {
	s.seq++
	j.seq = s.seq
	q := s.queues[j.tenant]
	if _, ok := s.queues[j.tenant]; !ok {
		s.ring = append(s.ring, j.tenant)
	}
	pos := len(q)
	for i, other := range q {
		if other.priority < j.priority {
			pos = i
			break
		}
	}
	q = append(q, nil)
	copy(q[pos+1:], q[pos:])
	q[pos] = j
	s.queues[j.tenant] = q
	s.queued++
	s.cond.Signal()
}

// next blocks until a job is available or the scheduler closes (nil).
// Fair share: the scan starts at the tenant after the one served last,
// so tenants take turns regardless of backlog sizes.
func (s *Scheduler) next() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closing {
			return nil
		}
		if s.queued > 0 {
			n := len(s.ring)
			for k := 1; k <= n; k++ {
				idx := (s.lastTenant + k) % n
				q := s.queues[s.ring[idx]]
				if len(q) == 0 {
					continue
				}
				j := q[0]
				s.queues[s.ring[idx]] = q[1:]
				s.lastTenant = idx
				s.queued--
				return j
			}
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
	s.mu.Lock()
	if j.userCanceled {
		// Canceled while queued and not yet reaped by Cancel itself —
		// complete it without running anything.
		s.mu.Unlock()
		s.completeJob(j, nil, fmt.Errorf("%w: canceled before start", runctl.ErrCanceled))
		return
	}
	j.state = StateRunning
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
	if j.spec.ShardCount > 1 {
		s.events.Emit("shard.started", j.id, map[string]any{
			"index": j.spec.ShardIndex, "count": j.spec.ShardCount, "fig": j.spec.Fig,
		})
	}

	ctx, cancel := context.WithCancel(j.parent)
	s.mu.Lock()
	j.cancel = cancel
	s.mu.Unlock()
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
	switch j.spec.Kind {
	case KindFigure:
		rowJ := j.rowJournal
		switch {
		case rowJ != nil:
		case j.spec.ShardCount > 1:
			// A slice journals into its sweep's shard directory, which only
			// the worker that opened it (jobs.OpenSlice) knows. Running it
			// unsharded or into a scheduler-owned journal would produce rows
			// no merge can find, so it fails instead.
			return nil, fmt.Errorf("jobs: sharded figure job %s (shard %d/%d) has no caller-owned row journal; shard sweeps with paperbench -shards", j.id, j.spec.ShardIndex, j.spec.ShardCount)
		case s.opts.Dir != "":
			// The row journal is keyed by the job fingerprint, so it can
			// only ever resume the spec that wrote it.
			rj, jerr := runstate.Open(filepath.Join(s.opts.Dir, "rows-"+j.id+".jsonl"), j.id, true)
			if jerr != nil {
				return nil, jerr
			}
			defer rj.Close()
			rowJ = rj
		}
		return runFigure(ctx, j, rowJ)
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
// shutdown or an external cancel, in which case it stays in-flight for
// the next scheduler over the same state dir) and wakes every waiter.
func (s *Scheduler) completeJob(j *Job, artifacts Artifacts, err error) {
	s.mu.Lock()
	closing := s.closing
	userCanceled := j.userCanceled
	s.mu.Unlock()
	parentCanceled := j.parent.Err() != nil

	// A cooperative cancellation that the submitter did not ask for —
	// scheduler shutdown or the parent context (an operator interrupt)
	// going away — leaves the job interrupted: its completion is not
	// journaled, so a durable scheduler resumes it on the next start.
	interrupted := err != nil && errors.Is(err, runctl.ErrCanceled) &&
		!userCanceled && (closing || parentCanceled)

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
		rec := doneRecord{Artifacts: artifacts, Canceled: userCanceled && err != nil}
		if err != nil {
			rec.Err = err.Error()
		}
		if rerr := s.state.Record("done|"+j.id, rec); rerr != nil {
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
	case userCanceled && errors.Is(err, runctl.ErrCanceled):
		j.state = StateCanceled
	default:
		j.state = StateFailed
	}
	state := j.state
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
	nj := s.newJob(id, j.spec, SubmitOptions{Tenant: j.tenant, Priority: j.priority, Timeout: j.timeout})
	nj.parent = j.parent
	nj.attempts = j.attempts
	nj.budgetBase = j.attempts
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
	if spec.ShardCount > 1 {
		f["shard_index"] = spec.ShardIndex
		f["shard_count"] = spec.ShardCount
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
		// Reap it from its queue so a worker never picks it up. When a
		// worker already dequeued it (but has not started it yet), leave
		// completion to that worker's userCanceled check — completing from
		// both sides would double-close the done channel.
		q := s.queues[j.tenant]
		for i, other := range q {
			if other == j {
				s.queues[j.tenant] = append(q[:i:i], q[i+1:]...)
				s.queued--
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
		Tenant:      j.tenant,
		Priority:    j.priority,
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

// cutPrefix is strings.CutPrefix (kept local for the 1.22 floor's sake).
func cutPrefix(s, prefix string) (string, bool) {
	if len(s) >= len(prefix) && s[:len(prefix)] == prefix {
		return s[len(prefix):], true
	}
	return "", false
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
