package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// This file is the cross-process half of the tracer: reading the trace
// files individual workers snapshot into a shard directory and stitching
// them into one Chrome trace with a lane group per process, span IDs
// remapped into disjoint ranges, and clocks aligned on the recorded
// wall-time origins. The output is a plain trace_event document — Perfetto renders
// a sharded sweep as one timeline, coordinator on top, workers below.

// ReadTrace parses a Chrome trace_event document previously produced by
// WriteChromeTrace (or MergeTraces). Documents without the ftesMeta
// extension load fine with an empty Meta.
func ReadTrace(r io.Reader) (TraceData, error) {
	var doc chromeTrace
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return TraceData{}, fmt.Errorf("obs: read chrome trace: %w", err)
	}
	td := TraceData{Events: doc.TraceEvents}
	if doc.Meta != nil {
		td.Meta = *doc.Meta
	}
	return td, nil
}

// ReadTraceFile reads one trace file from disk.
func ReadTraceFile(path string) (TraceData, error) {
	f, err := os.Open(path)
	if err != nil {
		return TraceData{}, err
	}
	defer f.Close()
	td, err := ReadTrace(f)
	if err != nil {
		return TraceData{}, fmt.Errorf("%s: %w", path, err)
	}
	return td, nil
}

// spanID reads a span identifier out of an event arg, which is an int64
// on a live snapshot but a float64 after a JSON round trip.
func spanID(v any) (int64, bool) {
	switch n := v.(type) {
	case int64:
		return n, true
	case float64:
		return int64(n), true
	case json.Number:
		i, err := n.Int64()
		return i, err == nil
	}
	return 0, false
}

// MergeTraces stitches the traces of several processes into one Chrome
// trace and writes it to w. The first trace is conventionally the
// coordinator's; each input gets its own pid (its lane group in the
// viewer) named after its Meta.Process via a process_name metadata event.
//
// Span IDs are rewritten into disjoint ranges so the merged document has
// globally unique span_id values; parent_id links are remapped within
// their own trace.
//
// Timestamps are normalized onto one clock: each trace's events shift by
// the offset of its wall-clock origin (Meta.WallUS) from the earliest
// origin among the inputs. Traces without a recorded origin stay at
// offset zero. Events are emitted in global timestamp order.
func MergeTraces(w io.Writer, traces ...TraceData) error {
	return writeTrace(w, mergeTraces(traces))
}

// mergeTraces builds the document MergeTraces writes.
func mergeTraces(traces []TraceData) TraceData {
	// First pass: assign the remapped ID of every span, keyed per trace
	// so parent_id links follow.
	perTrace := make([]map[int64]int64, len(traces))
	var next int64
	for i, td := range traces {
		ids := make(map[int64]int64)
		for _, ev := range td.Events {
			old, ok := spanID(ev.Args["span_id"])
			if !ok {
				continue
			}
			next++
			ids[old] = next
		}
		perTrace[i] = ids
	}

	// Clock alignment: earliest wall origin becomes the merged zero.
	minWall := 0.0
	for _, td := range traces {
		if td.Meta.WallUS > 0 && (minWall == 0 || td.Meta.WallUS < minWall) {
			minWall = td.Meta.WallUS
		}
	}

	var out []Event
	for i, td := range traces {
		pid := i + 1
		name := td.Meta.Process
		if name == "" {
			name = fmt.Sprintf("process %d", i)
		}
		out = append(out, Event{
			Name: "process_name",
			Ph:   "M",
			PID:  pid,
			Args: map[string]any{"name": name},
		})
		offset := 0.0
		if td.Meta.WallUS > 0 && minWall > 0 {
			offset = td.Meta.WallUS - minWall
		}
		for _, ev := range td.Events {
			args := make(map[string]any, len(ev.Args))
			for k, v := range ev.Args {
				args[k] = v
			}
			if old, ok := spanID(args["span_id"]); ok {
				args["span_id"] = perTrace[i][old]
			}
			if old, ok := spanID(args["parent_id"]); ok {
				args["parent_id"] = perTrace[i][old]
			}
			ev.Args = args
			ev.PID = pid
			ev.TS += offset
			out = append(out, ev)
		}
	}
	// Metadata events carry no timestamp; keep them ahead of the span
	// events they name by sorting "M" before "X" at equal TS.
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].TS != out[b].TS {
			return out[a].TS < out[b].TS
		}
		return out[a].Ph == "M" && out[b].Ph != "M"
	})
	return TraceData{Events: out, Meta: TraceMeta{WallUS: minWall}}
}
