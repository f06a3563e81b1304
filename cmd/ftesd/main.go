// Command ftesd is the design-as-a-service daemon: the same fault-tolerant
// design explorations cmd/paperbench and cmd/ftopt run from flags, exposed
// as a multi-tenant HTTP/JSON job API backed by internal/jobs.
//
// Usage:
//
//	ftesd -addr :8080 -workers 4 -state /var/lib/ftesd
//
// API:
//
//	POST   /jobs                     submit a job; body is either a job
//	                                 envelope (see below) or a bare specio
//	                                 problem document (a design job)
//	GET    /jobs                     list all jobs
//	GET    /jobs/{id}                one job's status
//	GET    /jobs/{id}/artifacts/{name}   a finished job's artifact bytes
//	DELETE /jobs/{id}                cooperatively cancel a job
//	POST   /jobs/{id}/retry          un-quarantine a job (re-opens its
//	                                 retry budget; see -retry)
//	GET    /jobs/{id}/metrics        per-job introspection (obshttp):
//	       /jobs/{id}/progress       Prometheus metrics, progress JSON,
//	       /jobs/{id}/trace          Chrome trace snapshot
//	       /jobs/{id}/events         this job's lifecycle events (SSE)
//	GET    /events                   fleet-wide lifecycle event stream
//	                                 (server-sent events; ?since=0 replays
//	                                 the journal, durable across restarts
//	                                 with -state)
//	GET    /timeseries               sampled counter/gauge history
//	GET    /metrics /healthz ...     daemon-level introspection (scheduler
//	                                 queue depth, completions, pprof)
//
// The job envelope selects the run:
//
//	{"kind":"figure","fig":"cc"}                          a paperbench figure
//	{"kind":"figure","fig":"6a","apps":10,"procs":[20,40],"seed":1}
//	{"kind":"design","spec":{...specio...},"strategy":"OPT","max_cost":20}
//	{"tenant":"alice","priority":5,"timeout_ms":60000, ...}
//
// Jobs are content-addressed: submitting an identical spec twice returns
// the same job id and shares one underlying run ("dedup":true in the
// response). Figure artifacts are byte-identical to the tables paperbench
// prints for the same parameters — both binaries run the same
// internal/jobs code path.
//
// With -state DIR the daemon is durable: kill -9 mid-job, restart, and
// every in-flight job resumes from its journals with byte-identical
// artifacts. Tenancy is fair-share: tenants take round-robin turns, so
// one tenant's backlog cannot starve another's; within a tenant, higher
// priority runs first.
//
// A figure runs as one crash-resumable job: "workers" parallelizes it,
// -state journals its rows and -retry re-runs it after a transient
// failure. Sweeps sharded over several processes run through paperbench
// -shards (supervised by -heal, reassembled by -merge), not the daemon.
//
// With -retry N the daemon self-heals: a job failing with a retryable
// error (ENOSPC, torn writes, a journal still held by a dying worker) is
// re-enqueued with exponential backoff up to N attempts, then quarantined
// — held, with its attempt history, until POST /jobs/{id}/retry re-opens
// the budget. Attempt counts are journaled, so restarts never reset them.
//
// While draining (after the first SIGINT/SIGTERM), submissions are
// refused with 503 and a Retry-After header naming the drain bound, so
// clients know when to try the restarted daemon.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/obs/obshttp"
	"repro/internal/retry"
	"repro/internal/runctl"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ftesd:", err)
		os.Exit(1)
	}
}

func run(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("ftesd", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "HTTP listen address (use 127.0.0.1:0 for an ephemeral port)")
	workers := fs.Int("workers", 1, "jobs run concurrently")
	state := fs.String("state", "", "durable state directory: submissions, completions and per-job rows are journaled here and in-flight jobs resume after a crash (empty = in-memory only)")
	drain := fs.Duration("drain", obshttp.DefaultDrainTimeout, "graceful-shutdown bound: how long in-flight HTTP requests and running jobs get to finish after SIGINT/SIGTERM")
	jobTimeout := fs.Duration("job-timeout", 0, "default per-job deadline when a submission does not set timeout_ms (0 = none)")
	logFormat := fs.String("log", "text", "structured log format on stderr: text, json or off")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn or error")
	sample := fs.Duration("sample", time.Second, "interval of the /timeseries metrics sampler")
	retryN := fs.Int("retry", 0, "self-healing attempt budget: jobs failing with retryable errors re-enqueue with backoff up to N attempts, then quarantine until POST /jobs/{id}/retry (0 or 1 = every failure is terminal)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	lg, err := newLogger(stderr, *logFormat, *logLevel)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	// The lifecycle event journal shares the daemon's durability story:
	// with -state it is an append-only CRC-framed file that replays on
	// restart, so /events?since=0 shows the fleet's history across
	// crashes; without -state it lives in memory like everything else.
	var events *obs.EventLog
	if *state != "" {
		// The event journal opens before the scheduler (which would
		// otherwise create the state dir), so create it here.
		if err := os.MkdirAll(*state, 0o755); err != nil {
			return err
		}
		if events, err = obs.OpenEventLog(filepath.Join(*state, "events.jsonl")); err != nil {
			return err
		}
	} else {
		events = obs.NewEventLog()
	}
	defer events.Close()
	var pol *retry.Policy
	if *retryN > 1 {
		pol = &retry.Policy{MaxAttempts: *retryN}
	}
	sched, err := jobs.New(jobs.Options{Workers: *workers, Dir: *state, Metrics: reg, Log: lg, Events: events, Retry: pol})
	if err != nil {
		return err
	}
	if n := sched.Resumed(); n > 0 {
		fmt.Fprintf(stderr, "ftesd: resumed %d in-flight job(s) from %s\n", n, *state)
	}
	sampler := obs.NewSampler(reg, *sample, 0)
	sampler.Start()
	defer sampler.Stop()

	d := newDaemon(sched, reg, lg, *jobTimeout, events, sampler)
	d.drainBound = *drain
	srv, err := obshttp.ServeHandler(*addr, d, obshttp.Options{DrainTimeout: *drain})
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "ftesd: serving on %s\n", srv.URL())
	lg.Info("ftesd up", "addr", srv.Addr(), "workers", *workers, "state", *state)
	events.Emit("daemon.up", "", map[string]any{"addr": srv.Addr(), "workers": *workers})

	// Two-stage shutdown: the first signal drains HTTP and cancels running
	// jobs (they stay journaled as interrupted, to resume on next start);
	// a second signal exits immediately.
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	// Refuse new submissions (503 + Retry-After) before draining starts,
	// so nothing slips into the queue while running jobs wind down.
	d.draining.Store(true)
	fmt.Fprintf(stderr, "ftesd: shutdown — draining for up to %v (signal again to exit now)\n", *drain)
	go func() {
		<-ch
		fmt.Fprintln(stderr, "ftesd: second signal — exiting immediately")
		os.Exit(130)
	}()
	if err := srv.Drain(); err != nil {
		fmt.Fprintln(stderr, "ftesd: http drain:", err)
	}
	closeCtx, cancel := contextWithTimeout(*drain)
	defer cancel()
	if err := sched.Close(closeCtx); err != nil {
		return err
	}
	events.Emit("daemon.down", "", nil)
	lg.Info("ftesd down")
	return nil
}

// daemon is the HTTP surface over one scheduler; split from run so tests
// drive it in-process through httptest.
type daemon struct {
	sched      *jobs.Scheduler
	reg        *obs.Registry
	lg         *obs.Logger
	jobTimeout time.Duration
	events     *obs.EventLog
	sampler    *obs.Sampler
	mux        *http.ServeMux

	// draining flips on the first shutdown signal: submissions are then
	// refused with 503 + Retry-After (drainBound, rounded up to seconds)
	// instead of being accepted by a scheduler about to close.
	draining   atomic.Bool
	drainBound time.Duration
}

func newDaemon(sched *jobs.Scheduler, reg *obs.Registry, lg *obs.Logger, jobTimeout time.Duration, events *obs.EventLog, sampler *obs.Sampler) *daemon {
	d := &daemon{sched: sched, reg: reg, lg: lg, jobTimeout: jobTimeout,
		events: events, sampler: sampler, mux: http.NewServeMux()}
	d.mux.HandleFunc("POST /jobs", d.submit)
	d.mux.HandleFunc("GET /jobs", d.list)
	d.mux.HandleFunc("GET /jobs/{id}", d.status)
	d.mux.HandleFunc("DELETE /jobs/{id}", d.cancel)
	d.mux.HandleFunc("POST /jobs/{id}/retry", d.retryJob)
	d.mux.HandleFunc("GET /jobs/{id}/artifacts/{name}", d.artifact)
	d.mux.HandleFunc("GET /jobs/{id}/{introspect...}", d.introspect)
	// Everything else — /metrics, /events, /timeseries, /healthz,
	// /debug/pprof, the index — is daemon-level introspection: the
	// scheduler's own instruments (queue depth, queue wait, completions),
	// the fleet-wide lifecycle event stream and the sampled counter
	// history.
	d.mux.Handle("/", obshttp.Handler(obshttp.Options{Registry: reg, Events: events, Sampler: sampler}))
	return d
}

func (d *daemon) ServeHTTP(w http.ResponseWriter, r *http.Request) { d.mux.ServeHTTP(w, r) }

// submitRequest is the job envelope. A body that is not an envelope but a
// bare specio problem document (it has an Application field and no kind)
// is accepted as {"kind":"design","spec":<body>}.
type submitRequest struct {
	Kind string `json:"kind"`

	// Figure jobs.
	Fig          string  `json:"fig,omitempty"`
	Apps         int     `json:"apps,omitempty"`
	Procs        []int   `json:"procs,omitempty"`
	Seed         int64   `json:"seed,omitempty"`
	Workers      int     `json:"workers,omitempty"`
	RunWorkers   int     `json:"run_workers,omitempty"`
	AppTimeoutMs float64 `json:"app_timeout_ms,omitempty"`
	Markdown     bool    `json:"markdown,omitempty"`

	// Design jobs.
	Spec     json.RawMessage `json:"spec,omitempty"`
	Strategy string          `json:"strategy,omitempty"`
	MaxCost  float64         `json:"max_cost,omitempty"`
	Slack    string          `json:"slack,omitempty"`

	// Scheduling (not part of the job's content-addressed identity).
	Tenant    string  `json:"tenant,omitempty"`
	Priority  int     `json:"priority,omitempty"`
	TimeoutMs float64 `json:"timeout_ms,omitempty"`
}

// submitResponse acknowledges an accepted submission.
type submitResponse struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Dedup reports that this submission joined an already-known job with
	// the same content fingerprint instead of enqueuing a new run.
	Dedup bool `json:"dedup"`
}

func (d *daemon) submit(w http.ResponseWriter, r *http.Request) {
	if d.draining.Load() {
		d.unavailable(w, errors.New("draining: daemon is shutting down, resubmit after restart"))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 8<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
		return
	}
	req, err := parseSubmit(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	spec := jobs.Spec{
		Kind: req.Kind,
		Fig:  req.Fig, Apps: req.Apps, Procs: req.Procs, Seed: req.Seed,
		Workers: req.Workers, RunWorkers: req.RunWorkers,
		AppTimeout: time.Duration(req.AppTimeoutMs * float64(time.Millisecond)),
		Markdown:   req.Markdown,
		Design:     req.Spec, Strategy: req.Strategy, MaxCost: req.MaxCost, Slack: req.Slack,
	}
	if spec.Kind == jobs.KindFigure && spec.Fig != "cc" {
		// The paperbench defaults, so {"kind":"figure","fig":"6a"} just works.
		if spec.Apps == 0 {
			spec.Apps = 10
		}
		if len(spec.Procs) == 0 {
			spec.Procs = []int{20, 40}
		}
		if spec.Seed == 0 {
			spec.Seed = 1
		}
	}
	timeout := d.jobTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs * float64(time.Millisecond))
	}
	so := jobs.SubmitOptions{
		Tenant:   req.Tenant,
		Priority: req.Priority,
		Timeout:  timeout,
	}
	h, err := d.sched.Submit(spec, so)
	if err != nil {
		if errors.Is(err, jobs.ErrClosed) {
			d.unavailable(w, err)
			return
		}
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, submitResponse{ID: h.ID(), State: h.Status().State, Dedup: h.Joined()})
}

// unavailable refuses a request with 503 and a Retry-After header: the
// daemon is draining (or its scheduler already closed), and the drain
// bound is an honest estimate of when a restarted daemon will listen.
func (d *daemon) unavailable(w http.ResponseWriter, err error) {
	secs := int((d.drainBound + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, http.StatusServiceUnavailable, struct {
		Error string `json:"error"`
	}{err.Error()})
}

// retryJob un-quarantines one job: its spec re-enqueues with a fresh
// retry-budget window (the attempt history stays monotonic).
func (d *daemon) retryJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	h, err := d.sched.Retry(id)
	if err != nil {
		switch {
		case errors.Is(err, jobs.ErrClosed):
			d.unavailable(w, err)
		default:
			code := http.StatusConflict
			if _, ok := d.sched.Get(id); !ok {
				code = http.StatusNotFound
			}
			httpError(w, code, err)
		}
		return
	}
	writeJSON(w, http.StatusOK, h.Status())
}

// parseSubmit decodes a job envelope, falling back to treating the whole
// body as a bare specio document when it looks like one.
func parseSubmit(body []byte) (*submitRequest, error) {
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(body, &probe); err != nil {
		return nil, fmt.Errorf("invalid JSON: %w", err)
	}
	if _, isEnvelope := probe["kind"]; !isEnvelope {
		if _, isSpec := probe["Application"]; isSpec {
			return &submitRequest{Kind: jobs.KindDesign, Spec: body}, nil
		}
		return nil, fmt.Errorf("body is neither a job envelope (no \"kind\") nor a specio document (no \"Application\")")
	}
	var req submitRequest
	dec := json.NewDecoder(bytesReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("invalid job envelope: %w", err)
	}
	return &req, nil
}

func (d *daemon) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []jobs.Status `json:"jobs"`
	}{d.sched.List()})
}

func (d *daemon) status(w http.ResponseWriter, r *http.Request) {
	h, ok := d.sched.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no job %s", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, h.Status())
}

func (d *daemon) cancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	h, ok := d.sched.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no job %s", id))
		return
	}
	if !d.sched.Cancel(id) {
		// Already finished: cancellation is a no-op, report current state.
		writeJSON(w, http.StatusConflict, h.Status())
		return
	}
	// Cooperative: the job stops at its next row boundary; a queued job is
	// already final by the time Cancel returns.
	writeJSON(w, http.StatusOK, h.Status())
}

func (d *daemon) artifact(w http.ResponseWriter, r *http.Request) {
	h, ok := d.sched.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no job %s", r.PathValue("id")))
		return
	}
	// A job's terminal state (and its job.* event) is published just
	// before its waiters wake, so a client reacting to either can land in
	// that gap: wait it out instead of refusing.
	switch st := h.Status().State; st {
	case jobs.StateQueued, jobs.StateRunning:
		httpError(w, http.StatusConflict, fmt.Errorf("job %s is %s; artifacts appear when it finishes", h.ID(), st))
		return
	}
	art, err := h.Wait(r.Context())
	if err != nil && r.Context().Err() != nil {
		return
	}
	name := r.PathValue("name")
	data, ok := art[name]
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("job %s has no artifact %q", h.ID(), name))
		return
	}
	if len(data) > 4 && string(data[:1]) == "{" {
		w.Header().Set("Content-Type", "application/json")
	} else {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	w.Write(data) //nolint:errcheck — client gone is client's problem
}

// introspect mounts the standard obshttp endpoints over one job's own
// instruments: /jobs/{id}/metrics, /jobs/{id}/progress, /jobs/{id}/trace
// (plus /healthz and /debug) scoped to exactly that run.
func (d *daemon) introspect(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	h, ok := d.sched.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no job %s", id))
		return
	}
	inst := h.Job().Instruments()
	// The job's own event stream: the daemon log filtered down to this id
	// (EventJob), alongside its private metrics/progress/trace.
	sub := obshttp.Handler(obshttp.Options{Registry: inst.Metrics, Progress: inst.Progress, Tracer: inst.Tracer,
		Events: d.events, EventJob: id})
	http.StripPrefix("/jobs/"+id, sub).ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// newLogger builds the stderr structured logger selected by -log and
// -log-level ("off" disables logging).
func newLogger(stderr io.Writer, format, level string) (*obs.Logger, error) {
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "info", "":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", level)
	}
	switch format {
	case "off", "":
		return nil, nil
	case "text":
		return obs.NewTextLogger(stderr, lvl), nil
	case "json":
		return obs.NewJSONLogger(stderr, lvl), nil
	default:
		return nil, fmt.Errorf("unknown -log format %q (want text, json or off)", format)
	}
}

func contextWithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

func bytesReader(b []byte) io.Reader { return bytes.NewReader(b) }

func httpError(w http.ResponseWriter, code int, err error) {
	// Canceled-job lookups read naturally as conflicts, not server faults.
	if errors.Is(err, runctl.ErrCanceled) {
		code = http.StatusConflict
	}
	writeJSON(w, code, struct {
		Error string `json:"error"`
	}{err.Error()})
}
