package obs_test

import (
	"bytes"
	"context"
	"io"
	"regexp"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/obs"
)

// sameAsOracle fails unless write produces the bytes encoding/json wrote
// for td, after mask is applied to both.
func sameAsOracle(t *testing.T, td obs.TraceData, write func(io.Writer) error, mask func([]byte) []byte) {
	t.Helper()
	var want, got bytes.Buffer
	if err := obs.OracleTrace(&want, td); err != nil {
		t.Fatal(err)
	}
	if err := write(&got); err != nil {
		t.Fatal(err)
	}
	g, w := mask(got.Bytes()), mask(want.Bytes())
	if !bytes.Equal(g, w) {
		n := 0
		for n < len(g) && n < len(w) && g[n] == w[n] {
			n++
		}
		t.Fatalf("encoder bytes differ from encoding/json's at byte %d of %d:\n got …%.120s\nwant …%.120s", n, len(w), g[n:], w[n:])
	}
}

func noMask(b []byte) []byte { return b }

var durField = regexp.MustCompile(`"dur":[-+.0-9eE]+`)

// maskDur hides the durations an open span's snapshot takes from the
// clock, which differ between two snapshots.
func maskDur(b []byte) []byte { return durField.ReplaceAll(b, []byte(`"dur":0`)) }

// workerTrace records a small worker-shaped trace with the attr types the
// stack uses, including strings that need escaping.
func workerTrace(label string) *obs.Tracer {
	tr := obs.NewTracer()
	tr.SetProcessLabel(label)
	root := tr.Start("fig.6c", obs.String("label", label))
	for i := 0; i < 20; i++ {
		it := root.Child("iteration", obs.Int("iter", i), obs.String("note", "<a & b>"))
		ro := it.Child("redundancy-opt", obs.Int64("seed", int64(i)<<40))
		ro.SetAttr(obs.Float("cost", float64(i)/7), obs.Bool("feasible", i%3 == 0))
		ro.End()
		it.End()
	}
	root.End()
	return tr
}

// roundTrip returns td as a merge reads it back from a snapshot file.
func roundTrip(t *testing.T, tr *obs.Tracer) obs.TraceData {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	td, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return td
}

// TestChromeTraceMatchesEncodingJSON pins the trace export's bytes to the
// encoding/json encoding of the same snapshot: on a real design run, on a
// merged fleet trace, on open spans, on an empty tracer and on every
// shape of the ftesMeta object.
func TestChromeTraceMatchesEncodingJSON(t *testing.T) {
	t.Run("cc run", func(t *testing.T) {
		inst, err := cc.Instance()
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTracer()
		span := tr.Start("fig.cc")
		for _, s := range []core.Strategy{core.MIN, core.MAX, core.OPT} {
			if _, err := core.RunContext(context.Background(), inst.App, inst.Platform,
				core.Options{Goal: inst.Goal, Strategy: s, ParentSpan: span}); err != nil {
				t.Fatal(err)
			}
		}
		span.End()
		td := tr.TraceData()
		if len(td.Events) < 1000 {
			t.Fatalf("cc trace has %d events, want a full run's", len(td.Events))
		}
		for _, ev := range td.Events {
			if ev.Args["unfinished"] != nil {
				t.Fatalf("span %q left open", ev.Name)
			}
		}
		sameAsOracle(t, td, tr.WriteChromeTrace, noMask)
	})

	t.Run("2-shard merge", func(t *testing.T) {
		coord := obs.NewTracer()
		coord.SetProcessLabel("coordinator")
		coord.Start("merge").End()
		inputs := []obs.TraceData{coord.TraceData(),
			roundTrip(t, workerTrace("shard 0/2")), roundTrip(t, workerTrace("shard 1/2"))}
		merged := obs.MergedTrace(inputs...)
		if len(merged.Events) < 80 {
			t.Fatalf("merged trace has %d events", len(merged.Events))
		}
		sameAsOracle(t, merged, func(w io.Writer) error { return obs.MergeTraces(w, inputs...) }, noMask)
	})

	t.Run("open spans", func(t *testing.T) {
		tr := workerTrace("live")
		root := tr.Start("open", obs.String("unfinished", "shadowed"))
		root.Child("open child", obs.Int("span_id", -5))
		td := tr.TraceData()
		if last := td.Events[len(td.Events)-1]; last.Args["unfinished"] != true {
			t.Fatalf("open span not flagged unfinished: %v", last.Args)
		}
		sameAsOracle(t, td, tr.WriteChromeTrace, maskDur)
	})

	t.Run("empty tracer", func(t *testing.T) {
		tr := obs.NewTracer()
		sameAsOracle(t, tr.TraceData(), tr.WriteChromeTrace, noMask)
		var nilTracer *obs.Tracer
		sameAsOracle(t, nilTracer.TraceData(), nilTracer.WriteChromeTrace, noMask)
	})

	t.Run("meta", func(t *testing.T) {
		for _, m := range []obs.TraceMeta{{}, {Process: "shard 0/2"}, {WallUS: 1.7e15}, {Process: "a\tb", WallUS: 12.5}} {
			td := obs.TraceData{Meta: m}
			sameAsOracle(t, td, func(w io.Writer) error { return obs.WriteTrace(w, td) }, noMask)
		}
	})
}
