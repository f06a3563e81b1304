package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// This file is the trace export's JSON encoder. A worker's exit-time
// snapshot holds thousands of spans; building an Event and an Args map per
// span and handing the document to reflective encoding/json cost more
// than recording the spans did. The encoder appends each event's bytes
// straight from its source (a span record or an Event) and streams them
// through a bufio.Writer.
//
// The bytes are exactly what json.NewEncoder(w).Encode(chromeTrace{...})
// writes, which the oracle test and FuzzTraceEncoding pin: struct fields
// in declaration order with their omitempty rules, args keys sorted,
// HTML-safe string escaping, encoding/json's float format and a trailing
// newline. Attr values of a type other than string, int, int64, float64
// or bool go through json.Marshal; so do non-finite floats, which makes
// the write fail with encoding/json's own error. A failed write may leave
// a prefix of the document on w.

// traceEncoder appends one event at a time to b and remembers the first
// error, so the appenders need no error plumbing.
type traceEncoder struct {
	b    []byte
	err  error
	keys []string // scratch: sorted Args keys of an Event
	refs []argRef // scratch: args of a span record
}

// argRef is one args entry of a span record: an index into its attrs, or
// one of the three keys the tracer adds itself.
type argRef struct {
	key string
	src int
}

const (
	argSpanID = -1 - iota
	argParentID
	argUnfinished
)

// encodeTrace writes a trace_event document holding n events, appended
// in order by event, followed by the display unit and, when set, meta.
func encodeTrace(w io.Writer, meta TraceMeta, n int, event func(e *traceEncoder, i int)) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	e := &traceEncoder{b: bw.AvailableBuffer()}
	e.b = append(e.b, `{"traceEvents":[`...)
	for i := 0; i < n; i++ {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		event(e, i)
		if e.err != nil {
			return fmt.Errorf("obs: write chrome trace: %w", e.err)
		}
		bw.Write(e.b) // a write error sticks to bw and surfaces at Flush
		e.b = bw.AvailableBuffer()
	}
	e.b = append(e.b, `],"displayTimeUnit":"ms"`...)
	if meta != (TraceMeta{}) {
		e.b = append(e.b, `,"ftesMeta":{`...)
		if meta.Process != "" {
			e.b = append(e.b, `"process":`...)
			e.b = appendString(e.b, meta.Process)
		}
		if meta.WallUS != 0 {
			if meta.Process != "" {
				e.b = append(e.b, ',')
			}
			e.b = append(e.b, `"wall_us":`...)
			e.float(meta.WallUS)
		}
		e.b = append(e.b, '}')
	}
	e.b = append(e.b, "}\n"...)
	if e.err != nil {
		return fmt.Errorf("obs: write chrome trace: %w", e.err)
	}
	bw.Write(e.b)
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("obs: write chrome trace: %w", err)
	}
	return nil
}

// head appends an event's fields up to, not including, its args.
func (e *traceEncoder) head(name, ph string, ts, dur float64, pid, tid int) {
	e.b = append(e.b, `{"name":`...)
	e.b = appendString(e.b, name)
	e.b = append(e.b, `,"ph":`...)
	e.b = appendString(e.b, ph)
	e.b = append(e.b, `,"ts":`...)
	e.float(ts)
	e.b = append(e.b, `,"dur":`...)
	e.float(dur)
	e.b = append(e.b, `,"pid":`...)
	e.b = strconv.AppendInt(e.b, int64(pid), 10)
	e.b = append(e.b, `,"tid":`...)
	e.b = strconv.AppendInt(e.b, int64(tid), 10)
}

// event appends an Event.
func (e *traceEncoder) event(ev *Event) {
	e.head(ev.Name, ev.Ph, ev.TS, ev.Dur, ev.PID, ev.TID)
	if len(ev.Args) > 0 {
		e.keys = e.keys[:0]
		for k := range ev.Args {
			e.keys = append(e.keys, k)
		}
		slices.Sort(e.keys)
		e.b = append(e.b, `,"args":{`...)
		for i, k := range e.keys {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = appendString(e.b, k)
			e.b = append(e.b, ':')
			e.value(ev.Args[k])
		}
		e.b = append(e.b, '}')
	}
	e.b = append(e.b, '}')
}

// spanEvent appends the event spanRecord.event would build, without
// building it: the args are the record's keys in the order event sets
// them, stable-sorted by key, keeping the last of each run of equal keys.
func (e *traceEncoder) spanEvent(r *spanRecord) {
	e.head(r.name, "X", micros(r.start), micros(r.end-r.start), 1, r.lane+1)
	refs := append(e.refs[:0], argRef{"span_id", argSpanID})
	if r.parent != 0 {
		refs = append(refs, argRef{"parent_id", argParentID})
	}
	for i, a := range r.attrs {
		refs = append(refs, argRef{a.Key, i})
	}
	if !r.ended {
		refs = append(refs, argRef{"unfinished", argUnfinished})
	}
	slices.SortStableFunc(refs, func(a, b argRef) int { return strings.Compare(a.key, b.key) })
	e.refs = refs
	e.b = append(e.b, `,"args":{`...)
	sep := false
	for i, ref := range refs {
		if i+1 < len(refs) && refs[i+1].key == ref.key {
			continue // overridden by a later entry
		}
		if sep {
			e.b = append(e.b, ',')
		}
		sep = true
		e.b = appendString(e.b, ref.key)
		e.b = append(e.b, ':')
		switch ref.src {
		case argSpanID:
			e.b = strconv.AppendInt(e.b, r.id, 10)
		case argParentID:
			e.b = strconv.AppendInt(e.b, r.parent, 10)
		case argUnfinished:
			e.b = append(e.b, "true"...)
		default:
			e.value(r.attrs[ref.src].Value)
		}
	}
	e.b = append(e.b, "}}"...)
}

// value appends one args value.
func (e *traceEncoder) value(v any) {
	switch v := v.(type) {
	case string:
		e.b = appendString(e.b, v)
	case int:
		e.b = strconv.AppendInt(e.b, int64(v), 10)
	case int64:
		e.b = strconv.AppendInt(e.b, v, 10)
	case float64:
		e.float(v)
	case bool:
		e.b = strconv.AppendBool(e.b, v)
	default:
		e.marshal(v)
	}
}

// marshal appends v as json.Marshal encodes it, or records its error.
func (e *traceEncoder) marshal(v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		if e.err == nil {
			e.err = err
		}
		return
	}
	e.b = append(e.b, raw...)
}

// float appends f in encoding/json's format: like strconv's shortest 'f',
// but 'e' for magnitudes below 1e-6 or from 1e21, with a single-digit
// negative exponent unpadded (1e-7, not 1e-07).
func (e *traceEncoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		e.marshal(f)
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

// appendString appends s as a JSON string the way encoding/json does with
// HTML escaping on: quotes, backslashes and control bytes escaped, <, >
// and & as \u003c, \u003e and \u0026, U+2028 and U+2029 escaped, and each
// invalid UTF-8 byte replaced by \ufffd.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
