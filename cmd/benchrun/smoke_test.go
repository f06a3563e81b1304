package main

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestSmoke runs every workload's timed and traced pass at a handful of
// ops, in process, against freshly built binaries.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the repository's binaries")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	for _, name := range []string{"ftesd", "paperbench"} {
		if err := goBuild(root, bin, name, testWriter{t}); err != nil {
			t.Fatal(err)
		}
	}
	ops := map[string]int{"cc-design": 4, "fig6-sweep": 4, "ftesd-jobs": 8, "sharded-6c": 2}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			e := &env{seed: 1, seconds: 1, trace: traced, nproc: runtime.NumCPU(), bin: bin,
				work: t.TempDir(), ops: ops[w.name], setups: 1, reps: 1}
			if traced {
				e.traceOut = filepath.Join(e.work, "trace.json")
			}
			res, err := runPass(context.Background(), w, e)
			if err != nil {
				t.Fatalf("%s (traced %t): %v", w.name, traced, err)
			}
			if !res.correct() || res.Attempted < ops[w.name] {
				t.Errorf("%s (traced %t): %d attempted, %d failed, problems %q", w.name, traced, res.Attempted, res.Failed, res.Problems)
			}
			defs := timedMetrics
			if traced {
				defs = layerMetrics
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s (traced %t): %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			m := res.Metrics
			switch {
			case !traced:
				for _, d := range endToEnd {
					if m[d.name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.name, d.name, m[d.name].Value)
					}
				}
			case w.name == "cc-design" || w.name == "fig6-sweep":
				if u := m["layers.unattributed_frac"].Value; u > maxUnattributed || m["core.self_ms"].Value <= 0 || m["sched.builds"].Value <= 0 {
					t.Errorf("%s: unattributed %v, core.self_ms %v, sched.builds %v", w.name, u, m["core.self_ms"].Value, m["sched.builds"].Value)
				}
				if res.TraceFile == "" {
					t.Errorf("%s: no trace written", w.name)
				}
			case w.name == "ftesd-jobs":
				if m["jobs.dedup_frac"].Value != 0.25 || m["jobs.run_p50_ms"].Value <= 0 {
					t.Errorf("ftesd-jobs: dedup_frac %v, run_p50_ms %v", m["jobs.dedup_frac"].Value, m["jobs.run_p50_ms"].Value)
				}
			case w.name == "sharded-6c":
				if m["shard.merge_ms"].Value <= 0 || m["shard.worker_skew"].Value < 1 {
					t.Errorf("sharded-6c: merge_ms %v, worker_skew %v", m["shard.merge_ms"].Value, m["shard.worker_skew"].Value)
				}
			}
		}
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}

func TestMain(m *testing.M) {
	if os.Getenv(probeEnv) == "1" {
		serveProbes()
		return
	}
	os.Exit(m.Run())
}
