package obshttp

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// This file implements the live half of the introspection surface:
// /events, a Server-Sent Events stream of the fleet lifecycle (job and
// sweep events from the obs.EventLog, interleaved with periodic progress
// frames), so `curl -N` can watch a sweep end-to-end.

// Tunables for the SSE loop. Variables, not constants, so tests can
// tighten them; production code never writes them.
var (
	// sseProgressInterval paces the progress frames on /events.
	sseProgressInterval = time.Second
	// sseHeartbeatInterval paces comment keep-alives so idle streams
	// survive proxies with read timeouts.
	sseHeartbeatInterval = 15 * time.Second
)

// handleEvents serves the SSE stream. Replay semantics: events with
// sequence numbers greater than ?since (or the Last-Event-ID header,
// standard SSE reconnect) are delivered first, then the stream follows
// the log live. ?since=now skips replay. A since beyond the log's
// latest sequence number names an event of an earlier process (sequence
// numbers restart with the log), so it replays from the start. ?job=ID
// (or Options.EventJob) filters lifecycle events to one job.
// ?progress_ms overrides the progress frame interval (0 disables
// progress frames).
func handleEvents(o Options) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		fl, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		var since int64
		if v := r.Header.Get("Last-Event-ID"); v != "" {
			since, _ = strconv.ParseInt(v, 10, 64)
		}
		if v := r.URL.Query().Get("since"); v != "" {
			if v == "now" {
				since = o.Events.Seq()
			} else {
				since, _ = strconv.ParseInt(v, 10, 64)
			}
		}
		if since > o.Events.Seq() {
			since = 0
		}
		job := o.EventJob
		if v := r.URL.Query().Get("job"); v != "" {
			job = v
		}
		progressEvery := sseProgressInterval
		if v := r.URL.Query().Get("progress_ms"); v != "" {
			if ms, err := strconv.Atoi(v); err == nil {
				progressEvery = time.Duration(ms) * time.Millisecond
			}
		}

		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("X-Accel-Buffering", "no") // defeat proxy buffering
		w.WriteHeader(http.StatusOK)
		fl.Flush()

		var progressC <-chan time.Time
		if o.Progress != nil && progressEvery > 0 {
			t := time.NewTicker(progressEvery)
			defer t.Stop()
			progressC = t.C
		}
		heartbeat := time.NewTicker(sseHeartbeatInterval)
		defer heartbeat.Stop()

		for {
			// Take the change signal before draining, so an emit landing
			// between the drain and the select is never missed.
			changed := o.Events.Changed()
			evs := o.Events.Events(since)
			// A client further behind than the ring window gets an explicit
			// gap marker instead of silently skipped events: the frame names
			// the missing sequence range so the watcher knows what it lost.
			if len(evs) > 0 && evs[0].Seq > since+1 {
				gap := map[string]int64{
					"from": since + 1, "to": evs[0].Seq - 1,
					"missing": evs[0].Seq - since - 1,
				}
				if err := writeSSE(w, 0, "gap", gap); err != nil {
					return
				}
			}
			for _, ev := range evs {
				since = ev.Seq
				if job != "" && ev.Job != job {
					continue
				}
				if err := writeSSE(w, ev.Seq, ev.Type, ev); err != nil {
					return
				}
			}
			fl.Flush()
			select {
			case <-r.Context().Done():
				return
			case <-changed:
			case <-progressC:
				if err := writeSSE(w, 0, "progress", o.Progress.Status()); err != nil {
					return
				}
				fl.Flush()
			case <-heartbeat.C:
				if _, err := fmt.Fprint(w, ": keep-alive\n\n"); err != nil {
					return
				}
				fl.Flush()
			}
		}
	}
}

// writeSSE emits one SSE frame. id 0 means "no id" (progress frames,
// which are snapshots rather than log entries, carry none so they don't
// disturb Last-Event-ID reconnect bookkeeping).
func writeSSE(w http.ResponseWriter, id int64, event string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if id > 0 {
		if _, err := fmt.Fprintf(w, "id: %d\n", id); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	return err
}
