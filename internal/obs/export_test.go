package obs

import (
	"testing"
	"time"
)

// Handles on the trace encoder's internals for the external oracle test,
// which needs a real design run and so cannot live in this package.
var (
	OracleTrace = oracleTrace
	WriteTrace  = writeTrace
	MergedTrace = func(traces ...TraceData) TraceData { return mergeTraces(traces) }
)

// TestExportRecomputesDuration pins the export-time duration contract: a
// snapshot taken while a span is open reports the duration-so-far
// (flagged unfinished), and a snapshot taken after End reports the final
// duration — an earlier export must never freeze what a later one sees.
func TestExportRecomputesDuration(t *testing.T) {
	tr := NewTracer()
	s := tr.Start("work")
	time.Sleep(5 * time.Millisecond)

	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	if evs[0].Args["unfinished"] != true {
		t.Errorf("open span not flagged unfinished: %v", evs[0].Args)
	}
	d1 := evs[0].Dur
	if d1 <= 0 {
		t.Errorf("open span duration %v, want > 0", d1)
	}

	time.Sleep(10 * time.Millisecond)
	s.End()

	evs = tr.Events()
	if _, still := evs[0].Args["unfinished"]; still {
		t.Errorf("ended span still flagged unfinished: %v", evs[0].Args)
	}
	if evs[0].Dur <= d1 {
		t.Errorf("post-End export kept snapshot-time duration: %v ≤ %v", evs[0].Dur, d1)
	}
	// And a third export agrees with the second: the duration is final.
	if again := tr.Events(); again[0].Dur != evs[0].Dur {
		t.Errorf("final duration drifted between exports: %v vs %v", again[0].Dur, evs[0].Dur)
	}
}

// TestSnapshotMutationIsolated is the regression test for the export
// aliasing bug: Events() used to return Args maps shared with the
// tracer's internal state, so an exporter rewriting a snapshot (exactly
// what MergeTraces does when it remaps span IDs) corrupted every later
// export.
func TestSnapshotMutationIsolated(t *testing.T) {
	tr := NewTracer()
	s := tr.Start("work", String("k", "v"))
	s.End()

	evs := tr.Events()
	evs[0].Args["span_id"] = int64(999)
	evs[0].Args["extra"] = true
	delete(evs[0].Args, "k")

	evs2 := tr.Events()
	if got := evs2[0].Args["span_id"]; got != int64(1) {
		t.Errorf("span_id corrupted by snapshot mutation: got %v, want 1", got)
	}
	if _, leaked := evs2[0].Args["extra"]; leaked {
		t.Errorf("snapshot mutation leaked into later export: %v", evs2[0].Args)
	}
	if got := evs2[0].Args["k"]; got != "v" {
		t.Errorf("attribute lost after snapshot mutation: got %v, want v", got)
	}
}

// TestDisabledTraceSurface: the cross-process merge API keeps the
// nil-receiver contract.
func TestDisabledTraceSurface(t *testing.T) {
	var tr *Tracer
	tr.SetProcessLabel("x")
	td := tr.TraceData()
	if td.Meta != (TraceMeta{}) || td.Events != nil {
		t.Errorf("nil tracer TraceData = %+v", td)
	}
}
