package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/specio"
	"repro/internal/taskgen"
)

// newTestServer stands up an in-process daemon over a fresh scheduler.
func newTestServer(t *testing.T, o jobs.Options) (*httptest.Server, *jobs.Scheduler) {
	t.Helper()
	reg := o.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
		o.Metrics = reg
	}
	sched, err := jobs.New(o)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newDaemon(sched, reg, nil, 0, o.Events, nil))
	t.Cleanup(func() {
		srv.Close()
		sched.Close(context.Background())
	})
	return srv, sched
}

func postJSON(t *testing.T, url, body string) (int, submitResponse) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr submitResponse
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, &sr); err != nil {
			t.Fatalf("submit response %q: %v", data, err)
		}
	}
	return resp.StatusCode, sr
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

// pollDone polls a job's status until it reaches a terminal state.
func pollDone(t *testing.T, base, id string) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		code, data := get(t, base+"/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("GET /jobs/%s = %d: %s", id, code, data)
		}
		var st jobs.Status
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case jobs.StateDone, jobs.StateFailed, jobs.StateCanceled, jobs.StateInterrupted:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

const tinyFigBody = `{"kind":"figure","fig":"6a","apps":2,"procs":[20],"seed":3}`

// TestSubmitFigure: a figure job submitted over HTTP produces the
// rendered table artifact, per-job introspection serves that run's own
// counters, and the daemon-level metrics expose the scheduler's queue.
func TestSubmitFigure(t *testing.T) {
	srv, _ := newTestServer(t, jobs.Options{Workers: 1})

	code, sr := postJSON(t, srv.URL+"/jobs", tinyFigBody)
	if code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d", code)
	}
	if sr.Dedup {
		t.Error("first submission reported dedup")
	}
	st := pollDone(t, srv.URL, sr.ID)
	if st.State != jobs.StateDone {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}

	code, table := get(t, srv.URL+"/jobs/"+sr.ID+"/artifacts/table.txt")
	if code != http.StatusOK || !bytes.Contains(table, []byte("Fig. 6a")) {
		t.Errorf("artifact (%d):\n%s", code, table)
	}

	code, prom := get(t, srv.URL+"/jobs/"+sr.ID+"/metrics")
	if code != http.StatusOK || !bytes.Contains(prom, []byte("core_archs_explored_total")) {
		t.Errorf("per-job metrics (%d) missing core counters:\n%.400s", code, prom)
	}
	code, prom = get(t, srv.URL+"/metrics")
	if code != http.StatusOK ||
		!bytes.Contains(prom, []byte("jobs_completed_total")) ||
		!bytes.Contains(prom, []byte("jobs_queue_depth")) {
		t.Errorf("daemon metrics (%d) missing scheduler instruments:\n%.400s", code, prom)
	}

	code, listing := get(t, srv.URL+"/jobs")
	if code != http.StatusOK || !bytes.Contains(listing, []byte(sr.ID)) {
		t.Errorf("GET /jobs (%d):\n%s", code, listing)
	}
}

// TestDedup: the same envelope twice returns the same id, flagged dedup.
func TestDedup(t *testing.T) {
	srv, _ := newTestServer(t, jobs.Options{Workers: 1})
	_, first := postJSON(t, srv.URL+"/jobs", tinyFigBody)
	_, second := postJSON(t, srv.URL+"/jobs", tinyFigBody)
	if first.ID != second.ID {
		t.Errorf("ids differ: %s vs %s", first.ID, second.ID)
	}
	if !second.Dedup {
		t.Error("second submission not flagged dedup")
	}
}

// TestConcurrentDedup: of N identical envelopes posted at once, exactly
// one starts the job and every other one reports a dedup join.
func TestConcurrentDedup(t *testing.T) {
	// A durable scheduler journals each new submission after indexing it,
	// which is the window a racing duplicate can join in.
	srv, _ := newTestServer(t, jobs.Options{Workers: 1, Dir: t.TempDir()})
	const n = 8
	resps := make(chan submitResponse, n)
	var start sync.WaitGroup
	start.Add(1)
	for i := 0; i < n; i++ {
		go func() {
			start.Wait()
			var sr submitResponse
			resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(tinyFigBody))
			if err != nil {
				t.Error(err)
			} else {
				if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil || resp.StatusCode != http.StatusAccepted {
					t.Errorf("POST /jobs = %d: %v", resp.StatusCode, err)
				}
				resp.Body.Close()
			}
			resps <- sr
		}()
	}
	start.Done()
	fresh := 0
	for i := 0; i < n; i++ {
		if sr := <-resps; sr.ID != "" && !sr.Dedup {
			fresh++
		}
	}
	if fresh != 1 {
		t.Errorf("%d of %d concurrent identical submissions reported dedup:false, want exactly 1", fresh, n)
	}
}

// designDoc is a small bare specio problem document (a design job).
func designDoc(t *testing.T) string {
	t.Helper()
	inst, err := taskgen.Generate(taskgen.DefaultConfig(3, 10, 1e-11, 25))
	if err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	if err := specio.Write(&doc, &specio.Spec{Application: inst.App, Platform: inst.Platform,
		Gamma: inst.Goal.Gamma, TauMs: inst.Goal.Tau}); err != nil {
		t.Fatal(err)
	}
	return doc.String()
}

// TestBareSpecioDesign: POSTing a bare specio problem document (no
// envelope) runs it as a design job with text and JSON result artifacts.
func TestBareSpecioDesign(t *testing.T) {
	doc := designDoc(t)

	srv, _ := newTestServer(t, jobs.Options{Workers: 1})
	code, sr := postJSON(t, srv.URL+"/jobs", doc)
	if code != http.StatusAccepted {
		t.Fatalf("POST bare specio = %d", code)
	}
	st := pollDone(t, srv.URL, sr.ID)
	if st.State != jobs.StateDone {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	_, text := get(t, srv.URL+"/jobs/"+sr.ID+"/artifacts/result.txt")
	if !bytes.Contains(text, []byte("strategy:    OPT")) {
		t.Errorf("result.txt:\n%s", text)
	}
	_, js := get(t, srv.URL+"/jobs/"+sr.ID+"/artifacts/result.json")
	var rec map[string]any
	if err := json.Unmarshal(js, &rec); err != nil {
		t.Fatalf("result.json not JSON: %v\n%s", err, js)
	}
	if _, ok := rec["feasible"]; !ok {
		t.Errorf("result.json has no feasible field:\n%s", js)
	}
}

// stallDoneLog is a log sink that holds the scheduler's "job done" line
// (written after the job's terminal state is visible, before its waiters
// wake) until release is closed, signalling stalled when it gets there.
type stallDoneLog struct{ stalled, release chan struct{} }

func (l stallDoneLog) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte("job done")) {
		close(l.stalled)
		<-l.release
	}
	return len(p), nil
}

// TestArtifactAtTerminalState: a client that sees a job's terminal state
// before the scheduler has woken its waiters (the window in which the
// terminal log line and job.done event are written) gets the artifact,
// not a 409.
func TestArtifactAtTerminalState(t *testing.T) {
	doc := designDoc(t)
	l := stallDoneLog{stalled: make(chan struct{}), release: make(chan struct{})}
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(l.release) }) }
	srv, _ := newTestServer(t, jobs.Options{Workers: 1, Log: obs.NewTextLogger(l, nil)})
	t.Cleanup(release) // runs before the server cleanup closes the scheduler

	code, sr := postJSON(t, srv.URL+"/jobs", doc)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	<-l.stalled
	var st jobs.Status
	if _, data := get(t, srv.URL+"/jobs/"+sr.ID); json.Unmarshal(data, &st) != nil || st.State != jobs.StateDone {
		t.Fatalf("status during the stall: %s", data)
	}
	got := make(chan int, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/jobs/" + sr.ID + "/artifacts/result.json")
		if err != nil {
			got <- 0
			return
		}
		resp.Body.Close()
		got <- resp.StatusCode
	}()
	time.Sleep(50 * time.Millisecond) // let the GET reach the handler mid-stall
	release()
	if c := <-got; c != http.StatusOK {
		t.Errorf("GET result.json at terminal state = %d, want 200", c)
	}
}

// TestCancel: DELETE cancels a job cooperatively; its terminal state is
// canceled and further artifacts reads say so.
func TestCancel(t *testing.T) {
	srv, _ := newTestServer(t, jobs.Options{Workers: 1})
	// A deliberately heavy sweep so the cancel lands while work remains.
	_, sr := postJSON(t, srv.URL+"/jobs", `{"kind":"figure","fig":"6b","apps":6,"procs":[20,40],"seed":1}`)
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+sr.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}
	st := pollDone(t, srv.URL, sr.ID)
	if st.State != jobs.StateCanceled {
		t.Errorf("state after DELETE = %s, want canceled", st.State)
	}
}

// TestSubmitErrors: malformed bodies and unknown jobs get 4xx JSON errors.
func TestSubmitErrors(t *testing.T) {
	srv, _ := newTestServer(t, jobs.Options{Workers: 1})
	for _, body := range []string{
		"not json",
		`{"fig":"6a"}`,                       // neither envelope nor specio
		`{"kind":"figure","fig":"6z"}`,       // unknown figure
		`{"kind":"design"}`,                  // no document
		`{"kind":"figure","fig":"6a","x":1}`, // unknown envelope field
		// The retired sharding field: refused, never run unsharded.
		`{"kind":"figure","fig":"runtime","shards":2}`,
	} {
		code, _ := postJSON(t, srv.URL+"/jobs", body)
		if code != http.StatusBadRequest {
			t.Errorf("POST %q = %d, want 400", body, code)
		}
	}
	if code, _ := get(t, srv.URL+"/jobs/nope"); code != http.StatusNotFound {
		t.Errorf("GET unknown job = %d, want 404", code)
	}
	if code, _ := get(t, srv.URL+"/jobs/nope/artifacts/table.txt"); code != http.StatusNotFound {
		t.Errorf("GET unknown artifact = %d, want 404", code)
	}
	if code, _ := get(t, srv.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("GET /healthz = %d", code)
	}
}

// TestRestartResume: a daemon torn down mid-job comes back over the same
// state directory, resumes the in-flight job, and serves an artifact
// byte-identical to an uninterrupted run's.
func TestRestartResume(t *testing.T) {
	// Clean reference artifact.
	cleanSrv, _ := newTestServer(t, jobs.Options{Workers: 1})
	_, cr := postJSON(t, cleanSrv.URL+"/jobs", tinyFigBody)
	if st := pollDone(t, cleanSrv.URL, cr.ID); st.State != jobs.StateDone {
		t.Fatalf("clean run: %s (%s)", st.State, st.Error)
	}
	_, want := get(t, cleanSrv.URL+"/jobs/"+cr.ID+"/artifacts/table.txt")

	dir := t.TempDir()
	reg1 := obs.NewRegistry()
	sched1, err := jobs.New(jobs.Options{Workers: 1, Dir: dir, Metrics: reg1})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(newDaemon(sched1, reg1, nil, 0, nil, nil))
	_, sr := postJSON(t, srv1.URL+"/jobs", tinyFigBody)
	// "Crash": tear the daemon down while the job runs. Close cancels the
	// run cooperatively; the completion is never journaled, so the job is
	// still in-flight on the next start.
	srv1.Close()
	if err := sched1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	srv2, sched2 := newTestServer(t, jobs.Options{Workers: 1, Dir: dir})
	if sched2.Resumed() != 1 {
		// The job may have finished before Close landed; then there is
		// nothing to resume and the journaled result must still match.
		code, data := get(t, srv2.URL+"/jobs/"+sr.ID)
		if code != http.StatusOK {
			t.Fatalf("job lost across restart: %d %s", code, data)
		}
	}
	st := pollDone(t, srv2.URL, sr.ID)
	if st.State != jobs.StateDone {
		t.Fatalf("resumed job: %s (%s)", st.State, st.Error)
	}
	_, got := get(t, srv2.URL+"/jobs/"+sr.ID+"/artifacts/table.txt")
	if !bytes.Equal(got, want) {
		t.Errorf("resumed artifact differs from clean run:\n%s\nwant:\n%s", got, want)
	}
}

// TestEnvelopeTimeout: a submission's timeout_ms bounds the run; the
// expired job reports failed with a deadline error.
func TestEnvelopeTimeout(t *testing.T) {
	srv, _ := newTestServer(t, jobs.Options{Workers: 1})
	_, sr := postJSON(t, srv.URL+"/jobs", `{"kind":"figure","fig":"6b","apps":6,"procs":[20,40],"timeout_ms":1}`)
	st := pollDone(t, srv.URL, sr.ID)
	if st.State != jobs.StateFailed || !strings.Contains(st.Error, "deadline") {
		t.Errorf("state = %s, err = %q; want failed with deadline error", st.State, st.Error)
	}
}
