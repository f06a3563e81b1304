package main

import (
	"sort"

	"repro/internal/obs"
)

// span is one traced interval, in microseconds since the tracer started.
type span struct {
	id, parent int64
	name       string
	start, end float64
}

// spansFromEvents converts a tracer snapshot into spans. Open spans come
// out of obs.Tracer.Events ending at the snapshot time; selfTimes clips
// them to their parent.
func spansFromEvents(evs []obs.Event) []span {
	out := make([]span, 0, len(evs))
	for _, ev := range evs {
		out = append(out, span{
			id:     argInt(ev.Args["span_id"]),
			parent: argInt(ev.Args["parent_id"]),
			name:   ev.Name,
			start:  ev.TS,
			end:    ev.TS + ev.Dur,
		})
	}
	return out
}

// argInt reads an integer span argument, which is an int64 in a live
// snapshot and a float64 once decoded from JSON.
func argInt(v any) int64 {
	switch x := v.(type) {
	case int64:
		return x
	case int:
		return int64(x)
	case float64:
		return int64(x)
	}
	return 0
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children (concurrent
// workers) are counted once, and a child reaching past its parent, such as
// a span left open, only counts inside the parent.
func selfTimes(spans []span) map[int64]float64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make(map[int64]float64, len(spans))
	for _, s := range spans {
		self[s.id] = (s.end - s.start) - covered(s, children[s.id])
	}
	return self
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(parent span, kids []span) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.start, parent.start), min(k.end, parent.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB float64
	open := false
	for _, v := range ivs {
		if !open || v.a > curB {
			if open {
				total += curB - curA
			}
			curA, curB, open = v.a, v.b, true
			continue
		}
		curB = max(curB, v.b)
	}
	if open {
		total += curB - curA
	}
	return total
}

// spanLayer maps the span names the program records to the layer that
// owns their self time. A span whose name is not listed inherits its
// parent's layer, so spans added inside a layer later still add up.
var spanLayer = map[string]string{
	"core.run":         "core",
	"arch":             "core",
	"mapping.optimize": "mapping",
	"iteration":        "mapping",
	"greedy-initial":   "mapping",
	"worker":           "mapping",
	"redundancy-opt":   "redundancy",
}

// layerSelfTimes sums span self times by layer, in microseconds. Root
// spans of unknown name land in "other", which counts as unattributed.
func layerSelfTimes(spans []span) map[string]float64 {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.id] = s
	}
	layerOf := make(map[int64]string, len(spans))
	var resolve func(id int64, depth int) string
	resolve = func(id int64, depth int) string {
		if l, ok := layerOf[id]; ok {
			return l
		}
		s, ok := byID[id]
		l := "other"
		switch {
		case !ok || depth > len(spans):
		case spanLayer[s.name] != "":
			l = spanLayer[s.name]
		case s.parent != 0:
			l = resolve(s.parent, depth+1)
		}
		layerOf[id] = l
		return l
	}
	out := make(map[string]float64)
	for id, t := range selfTimes(spans) {
		out[resolve(id, 0)] += t
	}
	return out
}
