package obs

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/runstate"
)

// EventLog is the fleet lifecycle journal of the observability layer: an
// ordered stream of small structured events — job submitted/started/
// finished, shard started, panic recovered — that the jobs scheduler
// and the ftesd daemon emit and that obshttp's /events endpoint streams
// to watchers.
//
// Two modes share one type. NewEventLog keeps events in memory only (a
// bounded ring), which is what ftesd uses without -state. OpenEventLog
// additionally journals every event to an append-only CRC-framed JSONL
// file — the exact runstate framing, with sequence numbers as row
// keys — so a daemon restart replays the full history: the ring is
// rebuilt from disk and new events continue the sequence where the
// previous process stopped.
//
// Like the rest of the package, a nil *EventLog is the disabled log:
// Emit costs one pointer check, Events returns nothing, and Changed
// returns a channel that never closes.
type EventLog struct {
	mu      sync.Mutex
	journal *runstate.Journal // nil in memory-only mode
	ring    []LogEvent        // most recent eventRingCap events, oldest first
	seq     int64
	dropped int64 // events pushed out of the ring since open
	meter   *Counter
	changed chan struct{}
	now     func() time.Time // injectable clock for tests
}

// eventRingCap bounds the in-memory replay window. The durable journal
// keeps everything; the ring is what /events can replay without disk.
const eventRingCap = 4096

// eventLogFingerprint binds an event journal file to this schema.
const eventLogFingerprint = "ftes-events-v1"

// LogEvent is one lifecycle event. Seq is a strictly increasing sequence
// number (also the SSE event id), Type a dotted kind like "job.started",
// Job the subject job ID when the event concerns one, and Fields
// free-form details (shard index, error text, elapsed milliseconds, …).
type LogEvent struct {
	Seq    int64          `json:"seq"`
	TimeMS int64          `json:"t_ms"` // wall clock, milliseconds since the Unix epoch
	Type   string         `json:"type"`
	Job    string         `json:"job,omitempty"`
	Fields map[string]any `json:"fields,omitempty"`
}

// NewEventLog returns an enabled, memory-only event log.
func NewEventLog() *EventLog {
	return &EventLog{changed: make(chan struct{}), now: time.Now}
}

// OpenEventLog opens (or creates) a durable event log journaled at path.
// An existing journal is replayed — its intact events fill the ring and
// the sequence continues past the highest replayed number — so history
// survives daemon restarts; a torn tail is rounded away exactly like any
// runstate journal. The file stays flock-guarded for the log's lifetime
// (runstate.ErrLocked when another process holds it).
func OpenEventLog(path string) (*EventLog, error) {
	j, err := runstate.Open(path, eventLogFingerprint, true)
	if err != nil {
		return nil, fmt.Errorf("obs: event log: %w", err)
	}
	e := NewEventLog()
	e.journal = j
	for _, row := range j.RestoredRows() {
		var ev LogEvent
		if !j.Lookup(row.Key, &ev) {
			continue
		}
		// Replay truncation is not counted as a drop: every replayed
		// event is safely in the journal; Dropped tracks ring overflow
		// only, which is what the SSE gap marker reports on.
		e.ring = appendRingLocked(e.ring, ev)
		if ev.Seq > e.seq {
			e.seq = ev.Seq
		}
	}
	return e, nil
}

func appendRingLocked(ring []LogEvent, ev LogEvent) []LogEvent {
	ring = append(ring, ev)
	if len(ring) > eventRingCap {
		ring = ring[len(ring)-eventRingCap:]
	}
	return ring
}

// appendRing adds ev to the ring, counting any event it pushes out:
// a watcher that has not caught up past the evicted sequence number can
// no longer replay it from memory. Called with e.mu held.
func (e *EventLog) appendRing(ev LogEvent) {
	before := len(e.ring)
	e.ring = appendRingLocked(e.ring, ev)
	if evicted := before + 1 - len(e.ring); evicted > 0 {
		e.dropped += int64(evicted)
		if e.meter != nil {
			e.meter.Add(int64(evicted))
		}
	}
}

// Emit records one event, assigning its sequence number and timestamp.
// In durable mode the event is fsynced to the journal before it becomes
// visible to readers. Emit never fails from the caller's point of view —
// a journal write error leaves the event in memory only — because
// lifecycle reporting must not take down the operation it reports on.
func (e *EventLog) Emit(typ, job string, fields map[string]any) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.seq++
	ev := LogEvent{Seq: e.seq, TimeMS: e.now().UnixMilli(), Type: typ, Job: job, Fields: fields}
	if e.journal != nil {
		// Errors are deliberately swallowed (see doc comment); the in-memory
		// stream stays consistent regardless.
		_ = e.journal.Record(fmt.Sprintf("%016d", ev.Seq), ev)
	}
	e.appendRing(ev)
	ch := e.changed
	e.changed = make(chan struct{})
	e.mu.Unlock()
	close(ch)
}

// MeterDropped attaches a counter (typically a registry's
// "events.dropped", exported as events_dropped_total) that is bumped
// once per event the ring evicts before every watcher could replay it.
func (e *EventLog) MeterDropped(c *Counter) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.meter = c
	e.mu.Unlock()
}

// Dropped returns how many events the in-memory ring has evicted since
// the log opened. Watchers that fell further behind than the ring
// window get a gap marker computed from OldestBuffered instead of the
// silently missing events.
func (e *EventLog) Dropped() int64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dropped
}

// OldestBuffered returns the sequence number of the oldest event still
// replayable from memory (0 when the ring is empty).
func (e *EventLog) OldestBuffered() int64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.ring) == 0 {
		return 0
	}
	return e.ring[0].Seq
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
// Replay is bounded by the in-memory ring: events older than the last
// eventRingCap are only in the durable journal (if any).
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

// Close releases the durable journal (no-op in memory-only mode or on
// nil).
func (e *EventLog) Close() error {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.journal == nil {
		return nil
	}
	err := e.journal.Close()
	e.journal = nil
	return err
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

// Job returns the scope's job ID ("" on nil).
func (s *EventScope) Job() string {
	if s == nil {
		return ""
	}
	return s.job
}
