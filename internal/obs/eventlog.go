package obs

import (
	"sync"
	"time"
)

// EventLog is the fleet lifecycle stream of the observability layer: an
// ordered stream of small structured events — job submitted/started/
// finished, panic recovered — that the jobs scheduler and the ftesd
// daemon emit and that obshttp's /events endpoint streams to watchers.
//
// The log lives in memory only (a bounded ring), and its sequence numbers
// start at 1 in every process. A durable scheduler rebuilds the history a
// restart needs from its own state journal, emitting one event per
// journaled transition when it opens (see jobs.New).
//
// Like the rest of the package, a nil *EventLog is the disabled log:
// Emit costs one pointer check, Events returns nothing, and Changed
// returns a channel that never closes.
type EventLog struct {
	mu      sync.Mutex
	ring    []LogEvent // most recent eventRingCap events, oldest first
	seq     int64
	changed chan struct{}
}

// eventRingCap bounds the replay window /events can serve.
const eventRingCap = 4096

// LogEvent is one lifecycle event. Seq is a strictly increasing sequence
// number (also the SSE event id), Type a dotted kind like "job.started",
// Job the subject job ID when the event concerns one, and Fields
// free-form details (attempt, error text, elapsed milliseconds, …).
type LogEvent struct {
	Seq    int64          `json:"seq"`
	TimeMS int64          `json:"t_ms"` // wall clock, milliseconds since the Unix epoch
	Type   string         `json:"type"`
	Job    string         `json:"job,omitempty"`
	Fields map[string]any `json:"fields,omitempty"`
}

// NewEventLog returns an enabled event log.
func NewEventLog() *EventLog {
	return &EventLog{changed: make(chan struct{})}
}

// Emit records one event, assigning its sequence number and timestamp.
func (e *EventLog) Emit(typ, job string, fields map[string]any) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.seq++
	e.ring = append(e.ring, LogEvent{Seq: e.seq, TimeMS: time.Now().UnixMilli(), Type: typ, Job: job, Fields: fields})
	if len(e.ring) > eventRingCap {
		e.ring = e.ring[len(e.ring)-eventRingCap:]
	}
	ch := e.changed
	e.changed = make(chan struct{})
	e.mu.Unlock()
	close(ch)
}

// Seq returns the sequence number of the most recent event (0 when none).
func (e *EventLog) Seq() int64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.seq
}

// Events returns the buffered events with Seq > after, oldest first.
// Replay is bounded by the ring: only the last eventRingCap events are
// kept.
func (e *EventLog) Events(after int64) []LogEvent {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	i := len(e.ring)
	for i > 0 && e.ring[i-1].Seq > after {
		i--
	}
	if i == len(e.ring) {
		return nil
	}
	return append([]LogEvent(nil), e.ring[i:]...)
}

// Changed returns a channel closed by the next Emit, letting a streamer
// block for new events without polling:
//
//	for {
//	    ch := log.Changed()
//	    deliver(log.Events(last))
//	    select { case <-ch: case <-ctx.Done(): return }
//	}
//
// Take the channel before draining Events so an emit that lands between
// the two is never missed. On a nil log the channel never closes.
func (e *EventLog) Changed() <-chan struct{} {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.changed
}

// Scoped returns an emitter bound to one job ID, for handing into code
// that reports events but should not choose their subject. A nil log
// scopes to a nil (disabled) scope.
func (e *EventLog) Scoped(job string) *EventScope {
	if e == nil {
		return nil
	}
	return &EventScope{log: e, job: job}
}

// EventScope is a job-bound emitter. A nil *EventScope is disabled.
type EventScope struct {
	log *EventLog
	job string
}

// Emit records one event under the scope's job ID.
func (s *EventScope) Emit(typ string, fields map[string]any) {
	if s == nil {
		return
	}
	s.log.Emit(typ, s.job, fields)
}
