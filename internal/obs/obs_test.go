package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// decode unmarshals a written trace back into its event list.
func decode(t *testing.T, data []byte) []Event {
	t.Helper()
	var doc struct {
		TraceEvents     []Event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	return doc.TraceEvents
}

// argID reads a span/parent id out of an event's args. Ids are int64 in
// freshly built events and float64 after a JSON round trip.
func argID(ev Event, key string) int64 {
	switch v := ev.Args[key].(type) {
	case int64:
		return v
	case float64:
		return int64(v)
	}
	return 0
}

func TestSequentialNesting(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("root", String("kind", "test"))
	a := root.Child("a", Int("i", 1))
	b := a.Child("b")
	b.End()
	a.End()
	c := root.Child("c")
	c.End()
	root.SetAttr(Bool("done", true))
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	evs := decode(t, buf.Bytes())
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	byName := map[string]Event{}
	for _, ev := range evs {
		if ev.Ph != "X" {
			t.Errorf("event %q has phase %q, want X", ev.Name, ev.Ph)
		}
		byName[ev.Name] = ev
	}
	// Parent links.
	if argID(byName["a"], "parent_id") != argID(byName["root"], "span_id") {
		t.Error("a is not a child of root")
	}
	if argID(byName["b"], "parent_id") != argID(byName["a"], "span_id") {
		t.Error("b is not a child of a")
	}
	// Time containment.
	within := func(child, parent string) {
		c, p := byName[child], byName[parent]
		if c.TS < p.TS || c.TS+c.Dur > p.TS+p.Dur {
			t.Errorf("%s [%v,%v] not contained in %s [%v,%v]",
				child, c.TS, c.TS+c.Dur, parent, p.TS, p.TS+p.Dur)
		}
	}
	within("a", "root")
	within("b", "a")
	within("c", "root")
	// Sequential nesting shares one lane, so the viewer's time-containment
	// flame layout reconstructs the hierarchy.
	for _, name := range []string{"a", "b", "c"} {
		if byName[name].TID != byName["root"].TID {
			t.Errorf("%s on lane %d, root on %d; sequential children share the parent lane",
				name, byName[name].TID, byName["root"].TID)
		}
	}
	// Attributes survive the round trip.
	if byName["root"].Args["kind"] != "test" || byName["root"].Args["done"] != true {
		t.Errorf("root args = %v", byName["root"].Args)
	}
	if byName["a"].Args["i"].(float64) != 1 {
		t.Errorf("a args = %v", byName["a"].Args)
	}
}

// TestConcurrentChildrenGetOwnLanes: children open at the same time must
// land on distinct tids, or the viewer would stack unrelated spans.
func TestConcurrentChildrenGetOwnLanes(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("root")
	w1 := root.Child("worker-1")
	w2 := root.Child("worker-2") // started while w1 is open
	g1 := w1.Child("grand")      // nested under w1 on w1's lane
	g1.End()
	w2.End()
	w1.End()
	root.End()
	evs := tr.Events()
	byName := map[string]Event{}
	for _, ev := range evs {
		byName[ev.Name] = ev
	}
	if byName["worker-1"].TID == byName["worker-2"].TID {
		t.Error("concurrent siblings share a lane")
	}
	if byName["grand"].TID != byName["worker-1"].TID {
		t.Error("sequential grandchild left its parent's lane")
	}
	// Lanes are reused once free: a span started after everything ended
	// gets the root lane back.
	late := tr.Start("late")
	late.End()
	evs = tr.Events()
	for _, ev := range evs {
		if ev.Name == "late" && ev.TID != byName["root"].TID {
			t.Errorf("late span on lane %d, want reused lane %d", ev.TID, byName["root"].TID)
		}
	}
}

func TestUnfinishedSpansExported(t *testing.T) {
	tr := NewTracer()
	s := tr.Start("open")
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	evs := decode(t, buf.Bytes())
	if len(evs) != 1 || evs[0].Name != "open" {
		t.Fatalf("events = %+v", evs)
	}
	if evs[0].Args["unfinished"] != true {
		t.Error("open span not flagged unfinished")
	}
	s.End()
	if n := tr.SpanCount(); n != 1 {
		t.Errorf("span count %d, want 1", n)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	s := tr.Start("x", Int("i", 1))
	if s != nil {
		t.Fatal("nil tracer started a span")
	}
	c := s.Child("y")
	if c != nil {
		t.Fatal("nil span produced a child")
	}
	s.SetAttr(Bool("b", true))
	s.End() // must not panic
	if tr.SpanCount() != 0 || tr.Events() != nil {
		t.Error("nil tracer recorded something")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if evs := decode(t, buf.Bytes()); len(evs) != 0 {
		t.Errorf("nil tracer wrote %d events", len(evs))
	}
}

func TestDoubleEndIsIdempotent(t *testing.T) {
	tr := NewTracer()
	s := tr.Start("once")
	s.End()
	s.End()
	if n := tr.SpanCount(); n != 1 {
		t.Errorf("span count %d after double End, want 1", n)
	}
}

// TestConcurrentUse hammers one tracer from many goroutines; run under
// -race in CI.
func TestConcurrentUse(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("root")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s := root.Child("w", Int("g", g), Int("i", i))
				s.Child("inner").End()
				s.End()
			}
		}(g)
	}
	wg.Wait()
	root.End()
	if n := tr.SpanCount(); n != 8*50*2+1 {
		t.Errorf("span count %d, want %d", n, 8*50*2+1)
	}
	// Every recorded parent link must resolve and be time-contained.
	evs := tr.Events()
	byID := map[int64]Event{}
	for _, ev := range evs {
		byID[argID(ev, "span_id")] = ev
	}
	for _, ev := range evs {
		pid := argID(ev, "parent_id")
		if pid == 0 {
			continue
		}
		p, ok := byID[pid]
		if !ok {
			t.Fatalf("event %q has dangling parent %d", ev.Name, pid)
		}
		const eps = 1e-3 // µs; guard float rounding of the microsecond conversion
		if ev.TS < p.TS-eps || ev.TS+ev.Dur > p.TS+p.Dur+eps {
			t.Fatalf("%q [%v,%v] escapes parent %q [%v,%v]",
				ev.Name, ev.TS, ev.TS+ev.Dur, p.Name, p.TS, p.TS+p.Dur)
		}
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.count").Add(2)
	r.Counter("a.count").Add(3)
	r.Counter("b.count").Add(1)
	r.Histogram("lat").Observe(2 * time.Millisecond)
	r.Histogram("lat").Observe(6 * time.Millisecond)

	s := r.Snapshot()
	if s.Counters["a.count"] != 5 || s.Counters["b.count"] != 1 {
		t.Errorf("counters = %v", s.Counters)
	}
	h := s.Histograms["lat"]
	if h.Count != 2 || h.Min != 2*time.Millisecond || h.Max != 6*time.Millisecond {
		t.Errorf("histogram = %+v", h)
	}
	if got, want := h.Mean(), 4*time.Millisecond; got != want {
		t.Errorf("mean = %v, want %v", got, want)
	}
	if len(h.Buckets) != 2 {
		t.Errorf("buckets = %+v, want 2 non-empty (2ms and 6ms fall in different powers of two)", h.Buckets)
	}

	var text bytes.Buffer
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"a.count 5", "b.count 1", "lat count=2"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text dump missing %q:\n%s", want, text.String())
		}
	}
	js, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatalf("JSON dump does not decode: %v", err)
	}
	if back.Counters["a.count"] != 5 {
		t.Errorf("JSON round trip lost counters: %v", back.Counters)
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(1)
	r.Histogram("y").Observe(time.Second)
	if v := r.Counter("x").Value(); v != 0 {
		t.Errorf("nil counter value %d", v)
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Histograms) != 0 {
		t.Error("nil registry snapshot not empty")
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second) // clamps to zero
	h.Observe(100 * time.Hour)
	s := h.snapshot()
	if s.Count != 2 || s.Min != 0 {
		t.Errorf("snapshot = %+v", s)
	}
	if s.Buckets[len(s.Buckets)-1].Count != 1 {
		t.Errorf("overflow bucket not used: %+v", s.Buckets)
	}
}

// BenchmarkDisabledSpan is the cost instrumented hot paths pay when no
// tracer is installed: a nil check per call.
func BenchmarkDisabledSpan(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := tr.Start("root")
		c := s.Child("child", Int("i", i))
		c.End()
		s.End()
	}
}

// BenchmarkEnabledSpan is the recording cost when a tracer is installed.
func BenchmarkEnabledSpan(b *testing.B) {
	tr := NewTracer()
	root := tr.Start("root")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := root.Child("child", Int("i", i))
		s.End()
	}
}

// BenchmarkDisabledRegistry is the no-op metrics cost.
func BenchmarkDisabledRegistry(b *testing.B) {
	var r *Registry
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Counter("c").Add(1)
		r.Histogram("h").Observe(time.Microsecond)
	}
}
