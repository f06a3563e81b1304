package jobs

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/runctl"
	"repro/internal/runstate"
	"repro/internal/specio"
	"repro/internal/taskgen"
)

// testSpec builds a distinct kindTest spec; the label rides in Fig so two
// labels fingerprint differently.
func testSpec(label string) Spec { return Spec{Kind: kindTest, Fig: label} }

// withHook installs a test runner for kindTest jobs for the duration of
// the test. Tests that use it mutate package globals, so none of them run
// in parallel.
func withHook(t *testing.T, hook func(ctx context.Context, j *Job) (Artifacts, error)) {
	t.Helper()
	testRunHook = hook
	t.Cleanup(func() { testRunHook = nil })
}

func newTestScheduler(t *testing.T, o Options) *Scheduler {
	t.Helper()
	s, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(context.Background()) })
	return s
}

func mustSubmit(t *testing.T, s *Scheduler, spec Spec) *Handle {
	t.Helper()
	h, err := s.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// waitRunning polls until h's job is running.
func waitRunning(h *Handle) {
	for h.Status().State != StateRunning {
		time.Sleep(time.Millisecond)
	}
}

// TestFIFOOrder: with one blocked worker, queued jobs start in
// submission order, and canceling a queued job removes it from the line
// without running it.
func TestFIFOOrder(t *testing.T) {
	started := make(chan string)
	proceed := make(chan struct{})
	withHook(t, func(ctx context.Context, j *Job) (Artifacts, error) {
		// Close cancels ctx, so a failed test never leaves the worker stuck.
		select {
		case started <- j.spec.Fig:
		case <-ctx.Done():
			return nil, runctl.Err(ctx)
		}
		select {
		case <-proceed:
		case <-ctx.Done():
			return nil, runctl.Err(ctx)
		}
		return Artifacts{"out": []byte(j.spec.Fig)}, nil
	})
	s := newTestScheduler(t, Options{Workers: 1})

	// j1 occupies the sole worker while the line builds up.
	h1 := mustSubmit(t, s, testSpec("j1"))
	if got := <-started; got != "j1" {
		t.Fatalf("first job %q, want j1", got)
	}
	handles := []*Handle{h1}
	for _, label := range []string{"j2", "j3", "j4", "j5"} {
		handles = append(handles, mustSubmit(t, s, testSpec(label)))
	}
	if !s.Cancel(handles[2].ID()) { // j3
		t.Fatal("Cancel found no queued j3")
	}
	s.mu.Lock()
	waiting := len(s.queue)
	s.mu.Unlock()
	if waiting != 3 {
		t.Fatalf("%d jobs wait after canceling j3, want 3", waiting)
	}
	if _, err := handles[2].Wait(context.Background()); !errors.Is(err, runctl.ErrCanceled) {
		t.Fatalf("canceled queued job err = %v, want ErrCanceled", err)
	}

	want := []string{"j2", "j4", "j5"}
	proceed <- struct{}{} // release j1
	for _, w := range want {
		if got := <-started; got != w {
			t.Errorf("execution order got %q, want %q", got, w)
		}
		proceed <- struct{}{}
	}
	for i, h := range handles {
		if i == 2 {
			continue
		}
		if _, err := h.Wait(context.Background()); err != nil {
			t.Errorf("job %s: %v", h.ID(), err)
		}
	}
}

// TestDedup: the same spec submitted twice runs once — both handles share
// the job and its artifacts — and a third submission after completion is
// served from the finished job without running anything.
func TestDedup(t *testing.T) {
	var runs atomic.Int64
	release := make(chan struct{})
	withHook(t, func(ctx context.Context, j *Job) (Artifacts, error) {
		runs.Add(1)
		<-release
		return Artifacts{"out": []byte("result")}, nil
	})
	s := newTestScheduler(t, Options{Workers: 2})

	h1 := mustSubmit(t, s, testSpec("same"))
	h2 := mustSubmit(t, s, testSpec("same"))
	if h1.ID() != h2.ID() {
		t.Fatalf("ids differ: %s vs %s", h1.ID(), h2.ID())
	}
	close(release)
	a1, err1 := h1.Wait(context.Background())
	a2, err2 := h2.Wait(context.Background())
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !bytes.Equal(a1["out"], a2["out"]) {
		t.Error("handles returned different artifacts")
	}
	if runs.Load() != 1 {
		t.Errorf("spec ran %d times, want 1", runs.Load())
	}

	h3 := mustSubmit(t, s, testSpec("same"))
	a3, err := h3.Wait(context.Background())
	if err != nil || string(a3["out"]) != "result" {
		t.Errorf("post-completion dedup: %v %q", err, a3["out"])
	}
	if runs.Load() != 1 {
		t.Errorf("completed spec re-ran (runs=%d)", runs.Load())
	}
	if st := h3.Status(); st.Submits != 3 {
		t.Errorf("submits = %d, want 3", st.Submits)
	}
}

// TestCancelQueued: canceling a job that is still waiting completes it
// immediately as canceled, without ever running it.
func TestCancelQueued(t *testing.T) {
	var runs atomic.Int64
	release := make(chan struct{})
	running := make(chan struct{})
	withHook(t, func(ctx context.Context, j *Job) (Artifacts, error) {
		if j.spec.Fig == "blocker" {
			close(running)
			<-release
			return nil, nil
		}
		runs.Add(1)
		return nil, nil
	})
	s := newTestScheduler(t, Options{Workers: 1})
	mustSubmit(t, s, testSpec("blocker"))
	<-running
	h := mustSubmit(t, s, testSpec("victim"))
	if !s.Cancel(h.ID()) {
		t.Fatal("Cancel found no job")
	}
	_, err := h.Wait(context.Background())
	if !errors.Is(err, runctl.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if st := h.Status(); st.State != StateCanceled {
		t.Errorf("state = %s, want canceled", st.State)
	}
	close(release)
	s.Close(context.Background())
	if runs.Load() != 0 {
		t.Error("canceled queued job still ran")
	}
}

// TestCancelRunning: canceling a running job cancels its context; the
// runner's typed cancel error surfaces as state canceled (a user cancel,
// so it is final — not interrupted/resumable).
func TestCancelRunning(t *testing.T) {
	running := make(chan struct{})
	withHook(t, func(ctx context.Context, j *Job) (Artifacts, error) {
		close(running)
		<-ctx.Done()
		return Artifacts{"partial": []byte("p")}, runctl.Err(ctx)
	})
	s := newTestScheduler(t, Options{Workers: 1})
	h := mustSubmit(t, s, testSpec("c"))
	<-running
	if !s.Cancel(h.ID()) {
		t.Fatal("Cancel found no job")
	}
	art, err := h.Wait(context.Background())
	if !errors.Is(err, runctl.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if string(art["partial"]) != "p" {
		t.Error("canceled job lost its partial artifacts")
	}
	if st := h.Status(); st.State != StateCanceled {
		t.Errorf("state = %s, want canceled", st.State)
	}
}

// TestJobTimeout: a per-job timeout cancels the run with a deadline
// error; the outcome is final (failed), not a resumable interruption.
func TestJobTimeout(t *testing.T) {
	withHook(t, func(ctx context.Context, j *Job) (Artifacts, error) {
		<-ctx.Done()
		return nil, runctl.Err(ctx)
	})
	s := newTestScheduler(t, Options{Workers: 1})
	h, err := s.Submit(testSpec("slow"), time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	_, err = h.Wait(context.Background())
	if !errors.Is(err, runctl.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
	if st := h.Status(); st.State != StateFailed {
		t.Errorf("state = %s, want failed", st.State)
	}
}

// TestResubmitAfterCancel: a canceled fingerprint is not poisoned — the
// next submission of the same spec runs it fresh.
func TestResubmitAfterCancel(t *testing.T) {
	var canceled atomic.Bool
	withHook(t, func(ctx context.Context, j *Job) (Artifacts, error) {
		if canceled.CompareAndSwap(false, true) {
			<-ctx.Done()
			return nil, runctl.Err(ctx)
		}
		return Artifacts{"out": []byte("ok")}, nil
	})
	s := newTestScheduler(t, Options{Workers: 1})
	h1 := mustSubmit(t, s, testSpec("again"))
	for {
		if st := h1.Status(); st.State == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	s.Cancel(h1.ID())
	if _, err := h1.Wait(context.Background()); !errors.Is(err, runctl.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	h2 := mustSubmit(t, s, testSpec("again"))
	art, err := h2.Wait(context.Background())
	if err != nil || string(art["out"]) != "ok" {
		t.Fatalf("resubmitted job: %v %q", err, art["out"])
	}
}

// TestResubmitOutcomeSurvivesRestart: a failed or canceled job that is
// resubmitted and then succeeds comes back done after a restart, with
// its attempt count. The second run's try| and done| rows must not
// collide with the first run's, or the journal drops them and the
// restart restores the first outcome. A resubmitted run cut short by
// the shutdown resumes after the restart instead.
func TestResubmitOutcomeSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	var runs sync.Map // label → *atomic.Int64
	withHook(t, func(ctx context.Context, j *Job) (Artifacts, error) {
		n, _ := runs.LoadOrStore(j.spec.Fig, new(atomic.Int64))
		switch run := n.(*atomic.Int64).Add(1); {
		case run == 1 && j.spec.Fig == "cancel", run == 2 && j.spec.Fig == "crash":
			<-ctx.Done()
			return nil, runctl.Err(ctx)
		case run == 1:
			return nil, errors.New("first run fails")
		}
		return Artifacts{"out": []byte("ok")}, nil
	})
	s1, err := New(Options{Workers: 1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, label := range []string{"fail", "cancel", "crash"} {
		h := mustSubmit(t, s1, testSpec(label))
		if label == "cancel" {
			waitRunning(h)
			s1.Cancel(h.ID())
		}
		if _, err := h.Wait(context.Background()); err == nil {
			t.Fatalf("%s: first run succeeded", label)
		}
		h = mustSubmit(t, s1, testSpec(label))
		ids = append(ids, h.ID())
		if label == "crash" {
			waitRunning(h)
			break
		}
		if _, err := h.Wait(context.Background()); err != nil {
			t.Fatalf("%s: resubmitted run: %v", label, err)
		}
		if st := h.Status(); st.State != StateDone || st.Attempts != 2 {
			t.Fatalf("%s: live status %s attempts %d, want done attempts 2", label, st.State, st.Attempts)
		}
	}
	if err := s1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2 := newTestScheduler(t, Options{Workers: 1, Dir: dir})
	if n := s2.Resumed(); n != 1 {
		t.Errorf("resumed %d jobs, want the crashed run's 1", n)
	}
	for i, id := range ids {
		h, ok := s2.Get(id)
		if !ok {
			t.Fatalf("job %d lost across restart", i)
		}
		if art, err := h.Wait(context.Background()); err != nil || string(art["out"]) != "ok" {
			t.Errorf("job %d restored result: %v %q", i, err, art["out"])
		}
		want := 2 + i/2 // the crashed job's resumed run is its third
		if st := h.Status(); st.State != StateDone || st.Attempts != want || st.Error != "" {
			t.Errorf("job %d restored as %s attempts %d (%s), want done attempts %d", i, st.State, st.Attempts, st.Error, want)
		}
	}
}

// TestLegacyDoneRow: a state journal written before completions were
// numbered keys them done|<id>; such a row still restores its outcome.
func TestLegacyDoneRow(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec("legacy")
	id, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	st, err := runstate.Open(filepath.Join(dir, "state.jsonl"), stateFingerprint, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		key string
		v   any
	}{
		{"job|" + id, submitRecord{Spec: spec}},
		{"try|" + id + "|1", struct{}{}},
		{"done|" + id, doneRecord{Artifacts: map[string][]byte{"out": []byte("old")}}},
	} {
		if err := st.Record(row.key, row.v); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	s := newTestScheduler(t, Options{Workers: 1, Dir: dir})
	h, ok := s.Get(id)
	if !ok {
		t.Fatal("legacy job not restored")
	}
	if art, err := h.Wait(context.Background()); err != nil || string(art["out"]) != "old" {
		t.Errorf("legacy job restored as %v %q, want done with its artifact", err, art["out"])
	}
	if st := h.Status(); st.State != StateDone || st.Attempts != 1 {
		t.Errorf("legacy job status %s attempts %d, want done attempts 1", st.State, st.Attempts)
	}
}

// TestValidation: malformed specs are rejected at Submit.
func TestValidation(t *testing.T) {
	s := newTestScheduler(t, Options{})
	bad := []Spec{
		{},
		{Kind: "mystery"},
		{Kind: KindFigure, Fig: "6z"},
		{Kind: KindFigure, Fig: "6a"},          // no apps
		{Kind: KindFigure, Fig: "6a", Apps: 2}, // no procs
		{Kind: KindDesign},                     // no document
		{Kind: KindDesign, Design: []byte("{}"), Strategy: "BEST"},  // bad strategy
		{Kind: KindDesign, Design: []byte("{}"), Slack: "borrowed"}, // bad slack
	}
	for _, spec := range bad {
		if _, err := s.Submit(spec, 0); err == nil {
			t.Errorf("Submit(%+v) accepted an invalid spec", spec)
		}
	}
}

// tinyFigSpec is the cheapest real figure workload (mirrors the
// experiments package's tinyConfig).
func tinyFigSpec() Spec {
	return Spec{Kind: KindFigure, Fig: "6a", Apps: 2, Procs: []int{20}, Seed: 3}
}

// TestFigureJobArtifact: a real figure job produces the rendered table as
// its artifact.
func TestFigureJobArtifact(t *testing.T) {
	s := newTestScheduler(t, Options{Workers: 1})
	h := mustSubmit(t, s, tinyFigSpec())
	art, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	table := art[ArtifactTable]
	if !bytes.Contains(table, []byte("Fig. 6a")) {
		t.Errorf("table artifact missing title:\n%s", table)
	}
	if st := h.Status(); st.State != StateDone || len(st.Artifacts) != 1 || st.Artifacts[0] != ArtifactTable {
		t.Errorf("status = %+v", st)
	}
}

// TestCrashResume: a durable scheduler whose process "dies" mid-figure —
// Close tears the run down after one fresh row, the completion never
// journaled — resumes the job on the next start and produces an artifact
// byte-identical to an uninterrupted run, restoring the finished rows
// from the per-job row journal instead of recomputing them.
func TestCrashResume(t *testing.T) {
	// Clean reference run (own scheduler, no durability).
	clean := newTestScheduler(t, Options{Workers: 1})
	want, err := mustSubmit(t, clean, tinyFigSpec()).Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	s1, err := New(Options{Workers: 1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var fresh atomic.Int64
	closed := make(chan error, 1)
	testFigRowDone = func(key string) {
		// The "crash": after the first freshly computed row, the scheduler
		// shuts down mid-job. Close waits for the running job, so it runs
		// on its own goroutine; the row loop goes on only once Close has
		// canceled the job, so the next row boundary sees the cancel.
		if fresh.Add(1) == 1 {
			go func() { closed <- s1.Close(context.Background()) }()
			for {
				s1.mu.Lock()
				closing := s1.closing
				s1.mu.Unlock()
				if closing {
					return
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	t.Cleanup(func() { testFigRowDone = nil })

	h1, err := s1.Submit(tinyFigSpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h1.Wait(context.Background()); !errors.Is(err, runctl.ErrCanceled) {
		t.Fatalf("torn-down job err = %v, want ErrCanceled", err)
	}
	if st := h1.Status(); st.State != StateInterrupted {
		t.Fatalf("state = %s, want interrupted", st.State)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	testFigRowDone = nil
	if fresh.Load() == 0 {
		t.Fatal("no row completed before the tear-down")
	}

	// Restart over the same state dir: the in-flight job re-enqueues and
	// finishes from where the row journal left off. (Two live schedulers
	// cannot share a state dir — the journal flock forbids it — so each
	// restart closes the previous instance first.)
	s2, err := New(Options{Workers: 1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Resumed() != 1 {
		t.Fatalf("Resumed() = %d, want 1", s2.Resumed())
	}
	h2, ok := s2.Get(h1.ID())
	if !ok {
		t.Fatal("resumed job not found by id")
	}
	got, err := h2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[ArtifactTable], want[ArtifactTable]) {
		t.Errorf("resumed artifact differs from clean run:\n%s\nwant:\n%s",
			got[ArtifactTable], want[ArtifactTable])
	}
	if err := s2.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Third start over the same dir: the job is now done in the state
	// journal, so it restores resolved and a resubmission is a dedup hit.
	s3 := newTestScheduler(t, Options{Workers: 1, Dir: dir})
	if s3.Resumed() != 0 {
		t.Fatalf("Resumed() after completion = %d, want 0", s3.Resumed())
	}
	h3, err := s3.Submit(tinyFigSpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	got3, err := h3.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got3[ArtifactTable], want[ArtifactTable]) {
		t.Error("restored done artifact differs from clean run")
	}
}

// TestCloseInterruptsRunning: Close cancels a running job and leaves it
// interrupted (resumable), not failed.
func TestCloseInterruptsRunning(t *testing.T) {
	running := make(chan struct{})
	withHook(t, func(ctx context.Context, j *Job) (Artifacts, error) {
		close(running)
		<-ctx.Done()
		return nil, runctl.Err(ctx)
	})
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Submit(testSpec("x"), 0)
	if err != nil {
		t.Fatal(err)
	}
	<-running
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := h.Status(); st.State != StateInterrupted {
		t.Errorf("state = %s, want interrupted", st.State)
	}
	if _, err := s.Submit(testSpec("y"), 0); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
}

// TestCloseRacesJobStart: a Close that lands while a worker is starting
// a job still interrupts the run. A job that became running before it
// became cancelable slipped past Close, which then waited for a run
// nothing would stop.
func TestCloseRacesJobStart(t *testing.T) {
	withHook(t, func(ctx context.Context, j *Job) (Artifacts, error) {
		<-ctx.Done()
		return nil, runctl.Err(ctx)
	})
	for i := 0; i < 200; i++ {
		s, err := New(Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		mustSubmit(t, s, testSpec("x"))
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err = s.Close(ctx)
		cancel()
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}

// designSpec builds a KindDesign spec over a small generated instance.
func designSpec(t *testing.T) Spec {
	t.Helper()
	inst, err := taskgen.Generate(taskgen.DefaultConfig(3, 10, 1e-11, 25))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	doc := &specio.Spec{Application: inst.App, Platform: inst.Platform,
		Gamma: inst.Goal.Gamma, TauMs: inst.Goal.Tau}
	if err := specio.Write(&buf, doc); err != nil {
		t.Fatal(err)
	}
	return Spec{Kind: KindDesign, Design: buf.Bytes(), MaxCost: 20}
}

// TestDesignJob: a design job over a generated specio document produces
// the text and JSON result artifacts.
func TestDesignJob(t *testing.T) {
	spec := designSpec(t)
	s := newTestScheduler(t, Options{Workers: 1})
	h := mustSubmit(t, s, spec)
	art, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(art[ArtifactResultText], []byte("strategy:    OPT")) {
		t.Errorf("result.txt:\n%s", art[ArtifactResultText])
	}
	if !bytes.Contains(art[ArtifactResultJSON], []byte("\"feasible\"")) {
		t.Errorf("result.json:\n%s", art[ArtifactResultJSON])
	}
}
