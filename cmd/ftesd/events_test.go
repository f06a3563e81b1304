package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
)

// TestDaemonDerivedReplay: after a restart over the same state
// directory, /events?since=0 replays each job's lifecycle, derived from
// the state journal and marked replayed, ahead of the restarted daemon's
// own events. No event journal is written next to the state journal.
func TestDaemonDerivedReplay(t *testing.T) {
	dir := t.TempDir()
	srv1, sched1 := newTestServer(t, jobs.Options{Workers: 1, Dir: dir})
	_, sr := postJSON(t, srv1.URL+"/jobs", tinyFigBody)
	if st := pollDone(t, srv1.URL, sr.ID); st.State != jobs.StateDone {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}
	srv1.Close()
	if err := sched1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "events*")); len(names) != 0 {
		t.Errorf("state dir holds an event journal: %v", names)
	}

	events := obs.NewEventLog()
	srv2, _ := newTestServer(t, jobs.Options{Workers: 1, Dir: dir, Events: events})
	events.Emit("daemon.up", "", nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", srv2.URL+"/events?since=0&progress_ms=0", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	seen := readSSEUntil(t, bufio.NewReader(resp.Body), "daemon.up", 20*time.Second)
	want := []string{"job.submitted", "job.started", "job.done", "daemon.up"}
	if fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Errorf("replay after restart = %v, want %v", seen, want)
	}
	for _, ev := range events.Events(0) {
		if ev.Type != "daemon.up" && (ev.Job != sr.ID || ev.Fields["replayed"] != true) {
			t.Errorf("derived event %+v not marked replayed for job %s", ev, sr.ID)
		}
	}
}

// readSSEUntil reads SSE frames off the stream until an event of type
// want (matched against the data payload's "type") arrives, returning
// the types seen in order.
func readSSEUntil(t *testing.T, body *bufio.Reader, want string, deadline time.Duration) []string {
	t.Helper()
	var seen []string
	done := make(chan struct{})
	timer := time.AfterFunc(deadline, func() { close(done) })
	defer timer.Stop()
	for {
		select {
		case <-done:
			t.Fatalf("no %s event within %v; saw %v", want, deadline, seen)
		default:
		}
		line, err := body.ReadString('\n')
		if err != nil {
			t.Fatalf("SSE stream ended early (saw %v): %v", seen, err)
		}
		if !strings.HasPrefix(line, "data:") {
			continue
		}
		var ev obs.LogEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data:")), &ev); err != nil {
			continue // progress frames and heartbeats are not LogEvents
		}
		if ev.Type == "" {
			continue
		}
		seen = append(seen, ev.Type)
		if ev.Type == want {
			return seen
		}
	}
}

// TestDaemonEventsSSE: the daemon streams lifecycle events over /events
// in submission order, and the per-job endpoint filters to one job.
func TestDaemonEventsSSE(t *testing.T) {
	srv, _ := newTestServer(t, jobs.Options{Workers: 1, Events: obs.NewEventLog()})

	_, sr := postJSON(t, srv.URL+"/jobs", tinyFigBody)
	if st := pollDone(t, srv.URL, sr.ID); st.State != jobs.StateDone {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}

	// Replay from the beginning over SSE: the job's lifecycle arrives in
	// order on both the fleet stream and the job-scoped one.
	for _, url := range []string{srv.URL + "/events?since=0", srv.URL + "/jobs/" + sr.ID + "/events?since=0"} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		req, _ := http.NewRequestWithContext(ctx, "GET", url, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
			t.Errorf("%s Content-Type = %q", url, ct)
		}
		seen := readSSEUntil(t, bufio.NewReader(resp.Body), "job.done", 20*time.Second)
		resp.Body.Close()
		cancel()
		idx := func(typ string) int {
			for i, s := range seen {
				if s == typ {
					return i
				}
			}
			return -1
		}
		sub, started, done := idx("job.submitted"), idx("job.started"), idx("job.done")
		if sub == -1 || started == -1 || done == -1 || !(sub < started && started < done) {
			t.Errorf("%s: lifecycle out of order: %v", url, seen)
		}
	}

}
