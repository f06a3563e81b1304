package obshttp

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// sseFrame is one parsed SSE frame.
type sseFrame struct {
	ID    string
	Event string
	Data  string
}

// sseStream is an open SSE connection. A single goroutine (started by
// openStream) owns the response body's reader and feeds lines, so
// repeated readFrames calls on one stream never race on the reader.
type sseStream struct {
	lines chan string
	errs  chan error
}

// readFrames reads SSE frames from s until n frames arrived or the
// context expired.
func readFrames(ctx context.Context, t *testing.T, s *sseStream, n int) []sseFrame {
	t.Helper()
	var frames []sseFrame
	var cur sseFrame
	for len(frames) < n {
		select {
		case <-ctx.Done():
			t.Fatalf("timed out with %d/%d frames: %+v", len(frames), n, frames)
		case err := <-s.errs:
			t.Fatalf("stream ended with %d/%d frames: %v", len(frames), n, err)
		case line := <-s.lines:
			switch {
			case strings.HasPrefix(line, "id: "):
				cur.ID = strings.TrimPrefix(line, "id: ")
			case strings.HasPrefix(line, "event: "):
				cur.Event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				cur.Data = strings.TrimPrefix(line, "data: ")
			case line == "" && cur.Event != "":
				frames = append(frames, cur)
				cur = sseFrame{}
			}
		}
	}
	return frames
}

func openStream(t *testing.T, url string) (*sseStream, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		cancel()
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		cancel()
		t.Fatalf("content type %q", ct)
	}
	s := &sseStream{lines: make(chan string), errs: make(chan error, 1)}
	go func() {
		r := bufio.NewReader(resp.Body)
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				s.errs <- err
				return
			}
			select {
			case s.lines <- strings.TrimRight(line, "\n"):
			case <-ctx.Done():
				return
			}
		}
	}()
	return s, func() { cancel(); resp.Body.Close() }
}

// TestEventsSSE: the stream replays buffered events, then delivers live
// emissions in order with SSE ids matching sequence numbers.
func TestEventsSSE(t *testing.T) {
	log := obs.NewEventLog()
	log.Emit("job.submitted", "j1", map[string]any{"fig": "6a"})
	log.Emit("job.started", "j1", nil)

	srv := httptest.NewServer(Handler(Options{Events: log}))
	defer srv.Close()

	r, done := openStream(t, srv.URL+"/events")
	defer done()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	frames := readFrames(ctx, t, r, 2)
	if frames[0].Event != "job.submitted" || frames[1].Event != "job.started" {
		t.Fatalf("replay out of order: %+v", frames)
	}
	if frames[0].ID != "1" || frames[1].ID != "2" {
		t.Errorf("SSE ids %q,%q, want 1,2", frames[0].ID, frames[1].ID)
	}

	log.Emit("job.done", "j1", map[string]any{"elapsed_ms": 7})
	live := readFrames(ctx, t, r, 1)
	if live[0].Event != "job.done" || live[0].ID != "3" {
		t.Fatalf("live frame %+v", live[0])
	}
	var ev obs.LogEvent
	if err := json.Unmarshal([]byte(live[0].Data), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Job != "j1" || ev.Fields["elapsed_ms"] != float64(7) {
		t.Errorf("payload %+v", ev)
	}
}

// TestEventsSinceAndJobFilter: ?since skips replay and ?job filters the
// lifecycle stream to one job's events.
func TestEventsSinceAndJobFilter(t *testing.T) {
	log := obs.NewEventLog()
	log.Emit("job.started", "a", nil)
	log.Emit("job.started", "b", nil)
	log.Emit("job.done", "a", nil)

	srv := httptest.NewServer(Handler(Options{Events: log}))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	r, done := openStream(t, srv.URL+"/events?job=b")
	frames := readFrames(ctx, t, r, 1)
	if frames[0].Event != "job.started" || !strings.Contains(frames[0].Data, `"job":"b"`) {
		t.Errorf("job filter leaked: %+v", frames[0])
	}
	// The next frame for job=b is a live one; a's events never arrive.
	log.Emit("job.done", "b", nil)
	frames = readFrames(ctx, t, r, 1)
	if frames[0].Event != "job.done" || !strings.Contains(frames[0].Data, `"job":"b"`) {
		t.Errorf("job filter leaked live: %+v", frames[0])
	}
	done()

	r, done = openStream(t, srv.URL+"/events?since=now")
	defer done()
	log.Emit("job.canceled", "c", nil)
	frames = readFrames(ctx, t, r, 1)
	if frames[0].Event != "job.canceled" {
		t.Errorf("since=now replayed history: %+v", frames[0])
	}
}

// TestEventsSinceFromEarlierProcess: sequence numbers restart with each
// process, so a client reconnecting with an id beyond the log's latest
// (one it kept from before a restart) replays from the first buffered
// event instead of waiting silently for a sequence number far ahead.
func TestEventsSinceFromEarlierProcess(t *testing.T) {
	log := obs.NewEventLog()
	log.Emit("job.submitted", "a", map[string]any{"replayed": true})
	log.Emit("daemon.up", "", nil)

	srv := httptest.NewServer(Handler(Options{Events: log}))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	r, done := openStream(t, srv.URL+"/events?progress_ms=0&since=1000")
	defer done()
	frames := readFrames(ctx, t, r, 2)
	if frames[0].Event != "job.submitted" || frames[0].ID != "1" || frames[1].Event != "daemon.up" {
		t.Errorf("reconnect past the latest seq replayed %+v, want the log from seq 1", frames)
	}
}

// TestEventsJobOption: Options.EventJob pins the filter server-side, the
// way ftesd's per-job mounts use it.
func TestEventsJobOption(t *testing.T) {
	log := obs.NewEventLog()
	log.Emit("job.started", "a", nil)
	log.Emit("job.started", "b", nil)

	srv := httptest.NewServer(Handler(Options{Events: log, EventJob: "b"}))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	r, done := openStream(t, srv.URL+"/events")
	defer done()
	frames := readFrames(ctx, t, r, 1)
	if !strings.Contains(frames[0].Data, `"job":"b"`) {
		t.Errorf("EventJob filter leaked: %+v", frames[0])
	}
}

// TestEventsProgressFrames: a stream over a Progress publisher carries
// periodic progress snapshots even with no lifecycle events at all.
func TestEventsProgressFrames(t *testing.T) {
	prog := obs.NewProgress()
	prog.Phase("rows").Add(3)

	srv := httptest.NewServer(Handler(Options{Progress: prog}))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	r, done := openStream(t, srv.URL+"/events?progress_ms=20")
	defer done()
	frames := readFrames(ctx, t, r, 2)
	for _, f := range frames {
		if f.Event != "progress" {
			t.Fatalf("unexpected frame %+v", f)
		}
		if f.ID != "" {
			t.Errorf("progress frame carries an id: %+v", f)
		}
		var st obs.ProgressStatus
		if err := json.Unmarshal([]byte(f.Data), &st); err != nil {
			t.Fatal(err)
		}
		if len(st.Phases) != 1 || st.Phases[0].Current != 3 {
			t.Errorf("progress payload %+v", st)
		}
	}
}
