// Package obs is the observability layer of the optimization stack: a
// zero-dependency, concurrency-safe tracer producing hierarchical spans
// exportable as Chrome trace_event JSON (loadable in Perfetto or
// chrome://tracing), plus a registry of named counters and duration
// histograms (metrics.go).
//
// The deeply nested design-space exploration — architecture exploration →
// tabu-search mapping → RedundancyOpt → shared-slack scheduling — has
// counters (evalengine.Stats) but no way to see *where time goes* inside a
// run. Spans answer that: one span per candidate architecture, per mapping
// optimization, per tabu iteration and per RedundancyOpt cache miss turn a
// `paperbench -fig cc -trace cc.json` run into a browsable flame view.
// The span taxonomy is documented in DESIGN.md ("Observability").
//
// # Disabled by default, free when disabled
//
// Every method is safe on a nil receiver: a nil *Tracer starts nil
// *Spans, whose Child/SetAttr/End are no-ops. Instrumented hot paths
// therefore call the API unconditionally and pay only a nil check when no
// tracer is installed (BenchmarkDisabledSpan; the instrumented
// BenchmarkCruiseController is within noise of the uninstrumented
// baseline).
//
// # Concurrency
//
// A Tracer may be shared by any number of goroutines: starting children,
// ending spans and exporting are all guarded by one mutex. An individual
// Span is owned by the goroutine that started it — SetAttr must not race
// with End — which matches how a sweep hands each application's spans to
// the goroutine that designs it.
//
// # Chrome trace_event mapping
//
// Spans are exported as complete ("X") events. chrome://tracing and
// Perfetto nest events on the same (pid, tid) track by time containment,
// so the tracer assigns each span a lane (exported as the tid): a child
// started while its parent is the innermost open span of its lane shares
// the parent's lane, and concurrent siblings get their own lanes —
// exactly the flame-graph layout a reader expects. The true parent
// relationship is preserved in args.parent_id regardless of lane
// placement, which is what the export tests assert nesting against.
package obs

import (
	"cmp"
	"io"
	"slices"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span. Values must be JSON
// encodable; the constructors below cover the types the stack uses.
type Attr struct {
	Key   string
	Value any
}

// String returns a string attribute.
func String(key, v string) Attr { return Attr{Key: key, Value: v} }

// Int returns an integer attribute.
func Int(key string, v int) Attr { return Attr{Key: key, Value: v} }

// Int64 returns a 64-bit integer attribute.
func Int64(key string, v int64) Attr { return Attr{Key: key, Value: v} }

// Float returns a floating-point attribute.
func Float(key string, v float64) Attr { return Attr{Key: key, Value: v} }

// Bool returns a boolean attribute.
func Bool(key string, v bool) Attr { return Attr{Key: key, Value: v} }

// Tracer records hierarchical spans. The zero value is not usable; create
// one with NewTracer. A nil *Tracer is the disabled tracer: Start returns
// a nil *Span and recording costs nothing.
type Tracer struct {
	mu sync.Mutex
	t0 time.Time
	// wall is the wall-clock reading taken together with t0. Span offsets
	// are measured on t0's monotonic clock; wall anchors them to real time
	// so MergeTraces can align traces recorded by different processes.
	wall time.Time
	// proc labels this tracer's lane group in a merged trace (e.g.
	// "shard 0/2"); empty means the merger invents a name.
	proc string
	// spans holds every span ever started, in start order. Events are
	// built from it at export time — never cached — so a span that ends
	// between two exports gets its final duration in the second one, and
	// mutating an exported snapshot cannot corrupt later exports.
	spans []*Span
	// lanes[l] is the stack of open spans occupying lane l, innermost
	// last. Lanes map to Chrome tids so that viewers reconstruct the
	// flame graph by time containment (see the package comment).
	lanes  [][]*Span
	nextID int64
}

// NewTracer returns an enabled tracer whose clock starts now.
func NewTracer() *Tracer {
	wall := time.Now()
	return &Tracer{
		t0:   wall,
		wall: wall.Round(0), // strip the monotonic reading; only the wall time matters
	}
}

// SetProcessLabel names this tracer's process lane in a merged trace
// (e.g. "shard 0/2" or "coordinator"). No-op on the disabled tracer.
func (t *Tracer) SetProcessLabel(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.proc = name
	t.mu.Unlock()
}

// Span is one timed region of a trace. A nil *Span is the disabled span:
// all methods are no-ops and Child returns nil.
type Span struct {
	tr     *Tracer
	name   string
	id     int64
	parent int64
	lane   int
	start  time.Duration
	end    time.Duration // valid iff ended
	attrs  []Attr
	ended  bool
}

// Start begins a root span.
func (t *Tracer) Start(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	return t.start(nil, name, attrs)
}

// Child begins a span nested under s. It is safe to start children of the
// same parent from several goroutines.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.tr.start(s, name, attrs)
}

// ID returns the span's identifier (0 on the disabled span) — the same
// value exported as span_id in the Chrome trace, so log lines carrying
// it correlate with the trace view.
func (s *Span) ID() int64 {
	if s == nil {
		return 0
	}
	return s.id
}

// SetAttr appends annotations to the span. It must be called by the
// goroutine that owns the span, before End (attributes set after End are
// dropped).
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if !s.ended {
		s.attrs = append(s.attrs, attrs...)
	}
	s.tr.mu.Unlock()
}

// End completes the span, fixing its end time. Ending twice is a no-op.
// The event itself is built at export time, never here, so an export
// taken before End and one taken after each see the duration that was
// true when they ran.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.tr
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.end = now
	t.releaseLane(s)
}

func (t *Tracer) start(parent *Span, name string, attrs []Attr) *Span {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	s := &Span{tr: t, name: name, id: t.nextID, start: now, attrs: attrs}
	if parent != nil {
		s.parent = parent.id
	}
	s.lane = t.acquireLane(parent)
	t.lanes[s.lane] = append(t.lanes[s.lane], s)
	t.spans = append(t.spans, s)
	return s
}

// acquireLane picks the lane for a new span: the parent's lane when the
// parent is the innermost open span there (sequential nesting), otherwise
// the lowest-numbered free lane (concurrent sibling or root).
func (t *Tracer) acquireLane(parent *Span) int {
	if parent != nil && !parent.ended {
		st := t.lanes[parent.lane]
		if len(st) > 0 && st[len(st)-1] == parent {
			return parent.lane
		}
	}
	for l, st := range t.lanes {
		if len(st) == 0 {
			return l
		}
	}
	t.lanes = append(t.lanes, nil)
	return len(t.lanes) - 1
}

// releaseLane removes s from its lane stack. Spans normally end innermost
// first; an out-of-order End is tolerated by removing from anywhere in the
// stack.
func (t *Tracer) releaseLane(s *Span) {
	st := t.lanes[s.lane]
	for i := len(st) - 1; i >= 0; i-- {
		if st[i] == s {
			t.lanes[s.lane] = append(st[:i], st[i+1:]...)
			return
		}
	}
}

// Event is one Chrome trace_event entry. TS and Dur are microseconds
// since the tracer's start, the unit the trace_event format specifies.
type Event struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// spanRecord is the part of a span an export reads, copied under the
// tracer mutex so that building events or encoding JSON happens outside
// it. end is the snapshot time for a span that is still open. attrs
// shares the span's backing array: SetAttr only appends beyond the copied
// length, so the copied elements never change.
type spanRecord struct {
	name       string
	start, end time.Duration
	id, parent int64
	lane       int
	attrs      []Attr
	ended      bool
}

// event builds the record's export event. The Args map is freshly
// allocated on every export: callers own the snapshot they get and may
// rewrite it (MergeTraces remaps IDs in place) without corrupting later
// exports. Later keys override earlier ones, so an attr may shadow
// span_id or parent_id, and unfinished shadows any attr of that name.
func (r *spanRecord) event() Event {
	args := make(map[string]any, len(r.attrs)+3)
	args["span_id"] = r.id
	if r.parent != 0 {
		args["parent_id"] = r.parent
	}
	for _, a := range r.attrs {
		args[a.Key] = a.Value
	}
	if !r.ended {
		args["unfinished"] = true
	}
	return Event{
		Name: r.name,
		Ph:   "X",
		TS:   micros(r.start),
		Dur:  micros(r.end - r.start),
		PID:  1,
		TID:  r.lane + 1,
		Args: args,
	}
}

// TraceMeta identifies one process's trace: who recorded it and where
// its clock zero sits on the wall clock (µs since the Unix epoch) so a
// merger can align traces across machines.
type TraceMeta struct {
	Process string  `json:"process,omitempty"`
	WallUS  float64 `json:"wall_us,omitempty"`
}

// TraceData is one process's exportable trace: its meta plus the event
// snapshot. It is what WriteChromeTrace serializes, ReadTrace parses
// back, and MergeTraces consumes.
type TraceData struct {
	Meta   TraceMeta
	Events []Event
}

// chromeTrace is the JSON object format of the trace_event specification;
// both chrome://tracing and Perfetto load it. The ftesMeta key is this
// package's extension carrying the cross-process merge metadata; viewers
// ignore unknown top-level keys.
type chromeTrace struct {
	TraceEvents     []Event    `json:"traceEvents"`
	DisplayTimeUnit string     `json:"displayTimeUnit"`
	Meta            *TraceMeta `json:"ftesMeta,omitempty"`
}

// snapshot copies every span's record and the trace meta in one pass
// under the mutex, then orders the records by start time (stable, so
// spans started at the same instant keep their start order).
func (t *Tracer) snapshot() ([]spanRecord, TraceMeta) {
	now := time.Since(t.t0)
	t.mu.Lock()
	recs := make([]spanRecord, len(t.spans))
	for i, s := range t.spans {
		end := now
		if s.ended {
			end = s.end
		}
		recs[i] = spanRecord{name: s.name, start: s.start, end: end, id: s.id,
			parent: s.parent, lane: s.lane, attrs: s.attrs, ended: s.ended}
	}
	meta := TraceMeta{Process: t.proc, WallUS: float64(t.wall.UnixMicro())}
	t.mu.Unlock()
	slices.SortStableFunc(recs, func(a, b spanRecord) int {
		return cmp.Compare(micros(a.start), micros(b.start))
	})
	return recs, meta
}

// Events returns a snapshot of the spans' events in start order, with
// still-open spans included as if they ended now (flagged with an
// "unfinished" arg). Durations are recomputed on every call — a span
// that ended since the last snapshot reports its true final duration —
// and the returned events (including their Args maps) are the caller's
// to mutate.
func (t *Tracer) Events() []Event {
	return t.TraceData().Events
}

// TraceData snapshots the full trace — meta plus events — in one call.
// A nil tracer returns an empty TraceData with no meta.
func (t *Tracer) TraceData() TraceData {
	if t == nil {
		return TraceData{}
	}
	recs, meta := t.snapshot()
	evs := make([]Event, len(recs))
	for i := range recs {
		evs[i] = recs[i].event()
	}
	return TraceData{Meta: meta, Events: evs}
}

// SpanCount returns how many spans have been recorded (completed or
// open).
func (t *Tracer) SpanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// WriteChromeTrace writes the trace as Chrome trace_event JSON. A nil
// tracer writes an empty (still valid) trace. Open spans are exported as
// if they ended now, flagged unfinished, so a trace written mid-run loses
// nothing; durations of spans that have ended are always their final
// ones, whatever earlier snapshots reported. The events are encoded
// straight from the span records (traceenc.go), with the bytes
// encoding/json would write for TraceData's events.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return writeTrace(w, TraceData{})
	}
	recs, meta := t.snapshot()
	return encodeTrace(w, meta, len(recs), func(e *traceEncoder, i int) {
		e.spanEvent(&recs[i])
	})
}

// writeTrace writes a snapshot of events, such as a merged trace.
func writeTrace(w io.Writer, td TraceData) error {
	return encodeTrace(w, td.Meta, len(td.Events), func(e *traceEncoder, i int) {
		e.event(&td.Events[i])
	})
}
