package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/specio"
	"repro/internal/taskgen"
)

// ftesd-jobs: design jobs through the daemon's HTTP API. Each op submits a
// job, waits for its job.done event on one shared event stream and fetches
// its result.json. Every fourth op resubmits an earlier spec, which the
// daemon's content addressing answers from its job table.

// ftesdSeed1Digest is the digest of the results of the first
// ftesdDigestSpecs distinct specs on seed 1.
const ftesdSeed1Digest = "36ba2fef6e7cd377"

// ftesdDigestSpecs is how many distinct specs the digest covers; a default
// run submits several times more.
const ftesdDigestSpecs = 256

// ftesdSpec generates distinct spec d of a run: a 20-process synthetic
// application at the fig6-sweep point, wrapped in the MIN design job
// envelope ftesd accepts.
func ftesdSpec(seed int64, d int) (*taskgen.Instance, []byte, error) {
	inst, err := taskgen.Generate(taskgen.DefaultConfig(seed*1_000_003+int64(d), 20, fig6SER, fig6HPD))
	if err != nil {
		return nil, nil, err
	}
	body, err := json.Marshal(struct {
		Kind     string      `json:"kind"`
		Spec     specio.Spec `json:"spec"`
		Strategy string      `json:"strategy"`
		MaxCost  float64     `json:"max_cost"`
	}{"design", specio.Spec{Application: inst.App, Platform: inst.Platform, Gamma: inst.Goal.Gamma, TauMs: inst.Goal.Tau}, "MIN", fig6ArC})
	return inst, body, err
}

// ftesdMaxOps caps the ops of a run. The daemon keeps every job, with its
// trace, in memory (about 1.5 MB per MIN job when this was measured), so a
// longer run would measure an ever larger heap.
const ftesdMaxOps = 1000

// resubmitTarget picks the spec that op block b resubmits: one of the
// specs submitted before the block, or the block's first.
func resubmitTarget(seed int64, b int) int {
	x := uint64(seed)<<32 ^ uint64(b)
	x += 0x9e3779b97f4a7c15 // splitmix64
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(3*b+1))
}

// designResult mirrors the result.json artifact of a design job.
type designResult struct {
	Application   string  `json:"application"`
	Strategy      string  `json:"strategy"`
	Feasible      bool    `json:"feasible"`
	Cost          float64 `json:"cost,omitempty"`
	ScheduleLenMs float64 `json:"schedule_length_ms,omitempty"`
	ArchsExplored int     `json:"archs_explored"`
	Evaluations   int     `json:"evaluations"`
}

// expectedResult is what result.json must say for inst: the same design
// run in this process.
func expectedResult(ctx context.Context, inst *taskgen.Instance) (designResult, error) {
	res, err := core.RunContext(ctx, inst.App, inst.Platform, core.Options{Goal: inst.Goal, Strategy: core.MIN, MaxCost: fig6ArC})
	if err != nil {
		return designResult{}, err
	}
	want := designResult{Application: inst.App.Name, Strategy: "MIN", Feasible: res.Feasible,
		ArchsExplored: res.ArchsExplored, Evaluations: res.Evaluations}
	if res.Feasible {
		want.Cost, want.ScheduleLenMs = res.Cost, res.Schedule.Length
	}
	return want, nil
}

// jobStatus is the part of GET /jobs/{id} the benchmark reads.
type jobStatus struct {
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at"`
	FinishedAt  time.Time `json:"finished_at"`
}

// jobOp is what one ftesd op observed.
type jobOp struct {
	d        int
	dedup    bool
	art      []byte
	submitMs float64
	latMs    float64
	queueMs  float64 // traced pass only
	runMs    float64 // traced pass only
}

func runFtesd(ctx context.Context, w workload, e *env) (*result, error) {
	r := newResult(w, e)
	n := 0
	dm, setupS, err := setUp(e, func() (*daemon, error) {
		n++
		dm, err := startDaemon(ctx, e, filepath.Join(e.work, fmt.Sprintf("ftesd-%d", n)))
		if err != nil {
			return nil, err
		}
		// Warm-up: one job outside the run's spec numbering, untimed.
		jo, err := dm.design(ctx, e.seed, -1, false)
		if err != nil {
			dm.stop()
			return nil, fmt.Errorf("ftesd warm-up: %w", err)
		}
		if err := verifyJob(ctx, e.seed, -1, jo.art); err != nil {
			r.problem("ftesd warm-up: %v", err)
		}
		return dm, nil
	}, func(dm *daemon) { dm.stop() })
	if err != nil {
		return nil, err
	}
	defer dm.stop()

	// Ops run one at a time, so a resubmission always reaches the daemon
	// after its original was answered. That keeps the dedup flag exact:
	// ftesd computes it after registering a submission, so two concurrent
	// submissions of one spec can both read dedup:true.
	ops := map[int]*jobOp{}
	op := func(ctx context.Context, i int) (time.Duration, error) {
		b, p := i/4, i%4
		d := 3*b + p
		if p == 3 {
			d = resubmitTarget(e.seed, b)
		}
		jo, err := dm.design(ctx, e.seed, d, e.trace)
		if jo == nil {
			return 0, err
		}
		ops[i] = jo
		return time.Duration(jo.latMs * float64(time.Millisecond)), err
	}

	bytes0 := dirBytes(dm.state)
	s0, err := dm.sample(ctx)
	if err != nil {
		return nil, err
	}
	u0 := sampleUsage()
	d, maxOps := e.limits(ftesdMaxOps)
	st := closedLoop(ctx, loopSpec{cycle: 4, d: d, maxOps: maxOps, probe: e.probe}, op)
	u1 := sampleUsage()
	s1, err := dm.sample(ctx)
	if err != nil {
		return nil, err
	}
	stateBytes := dirBytes(dm.state) - bytes0
	dm.stop()

	digest := verifyJobs(ctx, e, r, st, ops)
	r.Digest = digest
	r.count(st)
	timedE2E(e, r, st, u1.cpu-u0.cpu+s1.cpu-s0.cpu, s1.alloc-s0.alloc, s1.peakMB, setupS)

	m, count := r.Metrics, st.ops()
	var submit, queue, run, overhead, dedupLat []float64
	for i := 0; i < count; i++ {
		jo := ops[i]
		if jo == nil {
			continue
		}
		submit = append(submit, jo.submitMs)
		if jo.dedup {
			dedupLat = append(dedupLat, jo.latMs)
		} else if e.trace {
			queue = append(queue, jo.queueMs)
			run = append(run, jo.runMs)
			overhead = append(overhead, jo.latMs-jo.runMs)
		}
	}
	m.set("ftesd.submit_p50_ms", median(submit), len(submit))
	if e.trace {
		m.set("jobs.queue_wait_p50_ms", median(queue), len(queue))
		m.set("jobs.run_p50_ms", median(run), len(run))
		m.set("jobs.overhead_p50_ms", median(overhead), len(overhead))
	}
	m.set("jobs.dedup_frac", float64(len(dedupLat))/float64(count), count)
	m.set("jobs.dedup_p50_ms", median(dedupLat), len(dedupLat))
	m.set("runstate.state_bytes_per_job", float64(stateBytes)/float64(count), count)
	if want := count / 4; len(dedupLat) != want {
		r.problem("ftesd: %d of %d submissions deduplicated, want %d", len(dedupLat), count, want)
	}
	return r, nil
}

// verifyJobs checks the run's answers after the timed loop, so the checks
// cost the daemon nothing: every distinct spec's result.json must match
// the same design run in this process, and every resubmission must return
// the original's bytes. Ops that fail a check are marked failed. It
// returns the digest of the first specs' results.
func verifyJobs(ctx context.Context, e *env, r *result, st loopStats, ops map[int]*jobOp) string {
	first := map[int]int{} // spec → first op that returned it
	for i := 0; i < st.ops(); i++ {
		jo := ops[i]
		if jo == nil || st.failed[i] {
			continue
		}
		if j, ok := first[jo.d]; !ok {
			first[jo.d] = i
		} else if !bytes.Equal(jo.art, ops[j].art) {
			st.failed[i] = true
			fmt.Fprintf(os.Stderr, "benchrun: op %d: resubmitted spec %d returned different result.json bytes\n", i, jo.d)
		}
	}
	var lines []string
	for d, i := range first {
		if err := verifyJob(ctx, e.seed, d, ops[i].art); err != nil {
			st.failed[i] = true
			fmt.Fprintf(os.Stderr, "benchrun: op %d: %v\n", i, err)
		} else if d < ftesdDigestSpecs {
			lines = append(lines, fmt.Sprintf("%d %s", d, ops[i].art))
		}
	}
	if len(lines) < ftesdDigestSpecs {
		return ""
	}
	dg := digest(lines)
	if e.seed == 1 && dg != ftesdSeed1Digest {
		r.problem("ftesd: seed-1 digest %s, want %s", dg, ftesdSeed1Digest)
	}
	return dg
}

func verifyJob(ctx context.Context, seed int64, d int, art []byte) error {
	inst, _, err := ftesdSpec(seed, d)
	if err != nil {
		return err
	}
	want, err := expectedResult(ctx, inst)
	if err != nil {
		return err
	}
	var got designResult
	if err := json.Unmarshal(art, &got); err != nil {
		return fmt.Errorf("spec %d: result.json: %w", d, err)
	}
	if got != want {
		return fmt.Errorf("spec %d: daemon returned %+v, in-process design gives %+v", d, got, want)
	}
	return nil
}

// daemon is one running ftesd with the event stream ops wait on.
type daemon struct {
	cmd      *exec.Cmd
	exited   chan struct{}
	log      *os.File
	url      string
	state    string
	client   *http.Client
	events   *jobWaiter
	stopOnce sync.Once
	stopEv   context.CancelFunc
	evDone   chan struct{}
}

// startDaemon starts ftesd with durable state under dir and opens the
// event stream.
func startDaemon(ctx context.Context, e *env, dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "ftesd.log"))
	if err != nil {
		return nil, err
	}
	d := &daemon{log: logf, state: filepath.Join(dir, "state"), exited: make(chan struct{}),
		stopEv: func() {}, evDone: make(chan struct{})}
	close(d.evDone)
	d.cmd = exec.Command(filepath.Join(e.bin, "ftesd"),
		"-addr", "127.0.0.1:0", "-workers", strconv.Itoa(e.nproc), "-state", d.state)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	go func() { d.cmd.Wait(); close(d.exited) }()
	fail := func(err error) (*daemon, error) {
		d.stop()
		return nil, err
	}

	// ftesd prints its URL once it listens.
	deadline := time.Now().Add(30 * time.Second)
	for d.url == "" {
		b, _ := os.ReadFile(logf.Name())
		if _, after, ok := bytes.Cut(b, []byte("ftesd: serving on ")); ok {
			if line, _, ok := bytes.Cut(after, []byte("\n")); ok {
				d.url = string(line)
				break
			}
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("ftesd did not start within 30s: %s", b))
		}
		select {
		case <-d.exited:
			return fail(fmt.Errorf("ftesd exited during start: %s", b))
		case <-time.After(time.Millisecond):
		}
	}
	// Two connections: one for the ops, one for the event stream.
	d.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	for {
		if code, _, err := d.get(ctx, "/healthz"); err == nil && code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			return fail(errors.New("ftesd /healthz did not answer 200 within 30s"))
		}
		time.Sleep(time.Millisecond)
	}

	evCtx, cancel := context.WithCancel(ctx)
	d.stopEv = cancel
	req, err := http.NewRequestWithContext(evCtx, http.MethodGet, d.url+"/events?since=now", nil)
	if err != nil {
		return fail(err)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return fail(fmt.Errorf("open /events: %w", err))
	}
	d.events = newJobWaiter()
	d.evDone = make(chan struct{})
	go func() {
		defer close(d.evDone)
		defer resp.Body.Close()
		d.events.follow(resp.Body)
	}()
	return d, nil
}

// stop closes the event stream and shuts the daemon down gracefully,
// killing it if it does not exit within 15s, and waits for it.
func (d *daemon) stop() {
	d.stopOnce.Do(func() {
		d.stopEv()
		<-d.evDone
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(15 * time.Second):
			d.cmd.Process.Kill()
			<-d.exited
		}
		if d.client != nil {
			d.client.CloseIdleConnections()
		}
		d.log.Close()
	})
}

func (d *daemon) get(ctx context.Context, path string) (int, []byte, error) {
	return d.do(ctx, http.MethodGet, path, nil)
}

func (d *daemon) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, d.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// design is one op: submit spec d, wait for the job to finish, fetch its
// result.json. With status set it also reads the job's timestamps, after
// the op's latency is taken.
func (d *daemon) design(ctx context.Context, seed int64, spec int, status bool) (*jobOp, error) {
	_, body, err := ftesdSpec(seed, spec)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	jo := &jobOp{d: spec}
	t0 := time.Now()
	code, resp, err := d.do(ctx, http.MethodPost, "/jobs", body)
	jo.submitMs = msSince(t0)
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("POST /jobs: %d %s", code, resp)
	}
	var sub struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Dedup bool   `json:"dedup"`
	}
	if err == nil {
		err = json.Unmarshal(resp, &sub)
	}
	if err == nil && sub.State != "done" {
		var final string
		if final, err = d.events.await(ctx, sub.ID); err == nil && final != "job.done" {
			err = fmt.Errorf("job %s ended with %s", sub.ID, final)
		}
	}
	if err == nil {
		code, jo.art, err = d.get(ctx, "/jobs/"+sub.ID+"/artifacts/result.json")
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("GET result.json: %d %s", code, jo.art)
		}
	}
	jo.latMs = msSince(t0)
	jo.dedup = sub.Dedup
	if err != nil {
		return jo, fmt.Errorf("spec %d: %w", spec, err)
	}
	if status {
		var st jobStatus
		code, b, err := d.get(ctx, "/jobs/"+sub.ID)
		if err == nil && code == http.StatusOK {
			err = json.Unmarshal(b, &st)
		}
		if err != nil {
			return jo, fmt.Errorf("spec %d: GET /jobs/%s: %v", spec, sub.ID, err)
		}
		jo.queueMs = ms(st.StartedAt.Sub(st.SubmittedAt))
		jo.runMs = ms(st.FinishedAt.Sub(st.StartedAt))
	}
	return jo, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msSince(t time.Time) float64 { return ms(time.Since(t)) }

// daemonSample is the daemon's resource use so far.
type daemonSample struct {
	cpu    time.Duration
	alloc  uint64
	peakMB float64
}

// sample reads the daemon's CPU time and peak RSS from /proc and its heap
// allocation from /debug/vars.
func (d *daemon) sample(ctx context.Context) (daemonSample, error) {
	var s daemonSample
	pid := d.cmd.Process.Pid
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the line, in clock ticks of 1/100 s.
	_, rest, _ := bytes.Cut(stat, []byte(") "))
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return s, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	s.cpu = time.Duration(ut+st) * 10 * time.Millisecond
	s.peakMB = procPeakRSSMB(pid)
	code, b, err := d.get(ctx, "/debug/vars")
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET /debug/vars: %d", code)
	}
	if err != nil {
		return s, err
	}
	var vars struct {
		Memstats struct{ TotalAlloc uint64 } `json:"memstats"`
	}
	if err := json.Unmarshal(b, &vars); err != nil {
		return s, fmt.Errorf("/debug/vars: %w", err)
	}
	s.alloc = vars.Memstats.TotalAlloc
	return s, nil
}

// jobWaiter follows the daemon's event stream and lets ops wait for their
// job's final event. Finals are kept, so an op that starts waiting after
// its job finished returns at once.
type jobWaiter struct {
	mu     sync.Mutex
	final  map[string]string
	wake   map[string]chan struct{}
	broken chan struct{} // closed when the stream ends
}

func newJobWaiter() *jobWaiter {
	return &jobWaiter{final: map[string]string{}, wake: map[string]chan struct{}{}, broken: make(chan struct{})}
}

// terminalEvents end a job for good (a retry policy is not configured, so
// failures are final too).
var terminalEvents = map[string]bool{
	"job.done": true, "job.failed": true, "job.canceled": true,
	"job.interrupted": true, "job.quarantined": true,
}

// follow reads server-sent events until the stream ends.
func (w *jobWaiter) follow(r io.Reader) {
	defer close(w.broken)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev struct {
			Type string `json:"type"`
			Job  string `json:"job"`
		}
		if json.Unmarshal([]byte(data), &ev) != nil || !terminalEvents[ev.Type] {
			continue
		}
		w.mu.Lock()
		w.final[ev.Job] = ev.Type
		if ch, ok := w.wake[ev.Job]; ok {
			close(ch)
			delete(w.wake, ev.Job)
		}
		w.mu.Unlock()
	}
}

// await returns the final event type of job id.
func (w *jobWaiter) await(ctx context.Context, id string) (string, error) {
	w.mu.Lock()
	if t, ok := w.final[id]; ok {
		w.mu.Unlock()
		return t, nil
	}
	ch, ok := w.wake[id]
	if !ok {
		ch = make(chan struct{})
		w.wake[id] = ch
	}
	w.mu.Unlock()
	select {
	case <-ch:
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.final[id], nil
	case <-w.broken:
		return "", errors.New("event stream ended")
	case <-ctx.Done():
		return "", fmt.Errorf("waiting for job %s: %w", id, ctx.Err())
	}
}
