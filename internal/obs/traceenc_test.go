package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"
	"testing"
)

// oracleTrace is the encoding/json export the append-based encoder
// replaced. Every trace the encoder writes must equal its bytes.
func oracleTrace(w io.Writer, td TraceData) error {
	doc := chromeTrace{TraceEvents: td.Events, DisplayTimeUnit: "ms"}
	if td.Meta != (TraceMeta{}) {
		m := td.Meta
		doc.Meta = &m
	}
	if doc.TraceEvents == nil {
		doc.TraceEvents = []Event{}
	}
	return json.NewEncoder(w).Encode(doc)
}

// shardTracer records a tracer shaped like a sharded 6c worker's
// snapshot: about 5k spans, four fifths of them redundancy-opt cache
// misses under tabu iterations, under candidate architectures of two
// applications' design runs.
func shardTracer() *Tracer {
	tr := NewTracer()
	tr.SetProcessLabel("shard 1/2")
	fig := tr.Start("fig.6c")
	for app := 0; app < 2; app++ {
		a := fig.Child("app", Int64("seed", int64(9000+app)), Int("processes", 20))
		run := a.Child("core.run", String("strategy", "OPT"), Int("processes", 20))
		for arch := 0; arch < 5; arch++ {
			as := run.Child("arch", Int("nodes", 1+arch/2), Int("index", arch), Float("floor_cost", 12.5*float64(arch+1)))
			m := as.Child("mapping.optimize", String("cost_function", "schedule-length"),
				Int("tabu_tenure", 5), Int("max_no_improve", 10), Int("processes", 20), Int("nodes", 1+arch/2))
			for it := 0; it < 100; it++ {
				is := m.Child("iteration", Int("iter", it), Int("critical_path", 7), Int("neighborhood", 4))
				for r := 0; r < 4; r++ {
					rs := is.Child("redundancy-opt", Int("processes", 20))
					rs.SetAttr(Float("cost", 40+float64(r)/3), Bool("feasible", r%2 == 0))
					rs.End()
				}
				is.End()
			}
			m.End()
			as.SetAttr(Float("cost", 47.25))
			as.End()
		}
		run.End()
		a.End()
	}
	fig.End()
	return tr
}

// BenchmarkWriteChromeTrace is the cost of a shard worker's exit-time
// trace snapshot.
func BenchmarkWriteChromeTrace(b *testing.B) {
	tr := shardTracer()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.WriteChromeTrace(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// matchOracle writes td with the oracle and with write, and fails unless
// both fail or both succeed with the same bytes.
func matchOracle(t *testing.T, td TraceData, write func(io.Writer) error) {
	t.Helper()
	var want, got bytes.Buffer
	werr := oracleTrace(&want, td)
	gerr := write(&got)
	switch {
	case (werr == nil) != (gerr == nil):
		t.Fatalf("encoding/json error %v, encoder error %v", werr, gerr)
	case werr == nil && !bytes.Equal(got.Bytes(), want.Bytes()):
		t.Fatalf("encoder bytes differ from encoding/json's:\n got %q\nwant %q", got.Bytes(), want.Bytes())
	}
}

// FuzzTraceEncoding checks the encoder against the encoding/json oracle on
// fuzzed names, keys and values, on both of its inputs: live spans (with
// the attr overrides a span's args allow) and Events as MergeTraces hands
// them over. A value the oracle refuses, such as NaN or an infinity, must
// fail the encoder's write too. The seeds under testdata/fuzz cover HTML
// characters, U+2028/U+2029, control bytes, invalid UTF-8, -0, 1e-7,
// 1e21, subnormals, extreme int64s, NaN, -Inf and attrs shadowing
// span_id and unfinished.
func FuzzTraceEncoding(f *testing.F) {
	f.Fuzz(func(t *testing.T, name, key, s string, x float64, n int64, b bool) {
		tr := NewTracer()
		tr.SetProcessLabel(s)
		root := tr.Start(name, String(key, s), Float("f", x))
		child := root.Child(s, Int64(key, n), Bool("b", b), Int(name, int(n)),
			Attr{Key: "f32", Value: float32(x)}, Attr{Key: "u", Value: uint64(n)}, Attr{Key: "nil"})
		child.SetAttr(Float(key, x), String("span_id", name))
		child.End()
		root.End()
		matchOracle(t, tr.TraceData(), tr.WriteChromeTrace)

		td := TraceData{
			Meta: TraceMeta{Process: name, WallUS: x},
			Events: []Event{{Name: name, Ph: s, TS: x, Dur: float64(n), PID: int(n), TID: -1,
				Args: map[string]any{key: s, name: x, "list": []any{s, x, b, n}}}},
		}
		matchOracle(t, td, func(w io.Writer) error { return writeTrace(w, td) })
	})
}

// TestExportWhileRecording writes traces while other goroutines start
// spans, append attrs and end them: the export reads span fields only
// under the tracer lock and attrs only below the length it copied, so
// under -race every snapshot is race-free and valid JSON.
func TestExportWhileRecording(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("root")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s := root.Child("w", Int("g", g))
				for a := 0; a < 4; a++ {
					s.SetAttr(Int("a", a), String("s", "<x>"))
				}
				s.End()
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for exporting := true; exporting; {
		select {
		case <-done:
			exporting = false
		default:
		}
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		if !json.Valid(buf.Bytes()) {
			t.Fatalf("snapshot is not valid JSON: %.200s", buf.Bytes())
		}
	}
	root.End()
}
