package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lat := metricDef{"latency_p50_ms", "ms", "lower", 0.10}
	thr := metricDef{"throughput_ops_s", "ops/s", "higher", 0.10}
	steady := func(v float64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = v * (1 + 0.002*float64(i%3-1))
		}
		return out
	}
	for _, c := range []struct {
		name         string
		d            metricDef
		base, change []float64
		want         string
	}{
		{"same", lat, steady(100, 10), steady(100, 10), "ok"},
		{"worse within bound", lat, steady(100, 10), steady(108, 10), "ok"},
		{"worse beyond bound", lat, steady(100, 10), steady(112, 10), "regressed"},
		{"throughput drop", thr, steady(100, 10), steady(85, 10), "regressed"},
		{"throughput gain", thr, steady(100, 10), steady(120, 10), "improved"},
		{"latency gain", lat, steady(100, 10), steady(90, 10), "improved"},
		{"gain needs ten pairs", lat, steady(100, 9), steady(90, 9), "ok"},
		{"noisy", lat, []float64{80, 120, 90, 110, 100, 70, 130, 100, 95, 105}, steady(100, 10), "unresolved"},
		{"noisy but every change run better", lat, []float64{150, 120, 200, 110, 130}, []float64{90, 100, 95, 105, 99}, "ok"},
		{"too few runs", lat, []float64{100}, []float64{100}, "unresolved"},
		{"failures", failFrac, []float64{0, 0}, []float64{0, 0.01}, "regressed"},
		{"no failures", failFrac, []float64{0, 0}, []float64{0, 0}, "ok"},
	} {
		if got := verdict(c.d, c.base, c.change); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func syntheticRecord(nproc int, p50 float64) *record {
	res := &result{Workload: "cc-design", TailPct: 90, SpeedScale: 1, Metrics: metricSet{}}
	for _, d := range endToEnd {
		res.Metrics[d.name] = metric{Value: 10, Unit: d.unit, Samples: 1}
	}
	res.Metrics[failFrac.name] = metric{Unit: failFrac.unit}
	for i := 0; i < 20; i++ {
		res.LatenciesMs = append(res.LatenciesMs, p50)
	}
	traced := &result{Workload: "cc-design", Trace: true, Metrics: metricSet{}}
	return &record{Schema: recordSchema, Nproc: nproc, Results: []*result{res, traced}}
}

func TestCompareSets(t *testing.T) {
	var base, change []*record
	for i := 0; i < 10; i++ {
		base = append(base, syntheticRecord(2, 100+float64(i%2)))
		change = append(change, syntheticRecord(2, 130+float64(i%2)))
	}
	rows, err := compareSets(base, change, endToEnd)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, r := range rows {
		if r.workload != "cc-design" {
			t.Errorf("row for workload %s, which no record has", r.workload)
		}
		got[r.def.name] = r.verdict
	}
	want := map[string]string{
		// Recomputed from the raw samples, not the stored value.
		"latency_p50_ms":   "regressed",
		"latency_tail_ms":  "regressed",
		"throughput_ops_s": "ok",
		"cpu_ms_per_op":    "ok",
		"alloc_mb_per_op":  "ok",
		"peak_rss_mb":      "ok",
		"setup_s":          "ok",
		"fail_frac":        "ok",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("verdicts %v, want %v", got, want)
	}

	if _, err := compareSets(base, []*record{syntheticRecord(4, 100)}, endToEnd); err == nil ||
		!strings.Contains(err.Error(), "different nproc") {
		t.Errorf("records with different nproc compared: err = %v", err)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "records.jsonl")
	for i := 0; i < 3; i++ {
		if err := appendRecord(path, syntheticRecord(2, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := readRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[2].Results[0].LatenciesMs[0] != 2 {
		t.Fatalf("read back %d records: %+v", len(recs), recs)
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps the metric catalogue, the
// workload list and the repository's BENCHMARK.json in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound,omitempty"`
	}
	var doc struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	asDefs := func(ds []metricDef) []def {
		var out []def
		for _, d := range ds {
			out = append(out, def{d.name, d.unit, d.better, d.bound})
		}
		return out
	}
	if !reflect.DeepEqual(doc.EndToEnd, asDefs(endToEnd)) {
		t.Errorf("end_to_end:\n %+v\nwant\n %+v", doc.EndToEnd, asDefs(endToEnd))
	}
	if !reflect.DeepEqual(doc.PerLayer, asDefs(layerMetrics)) {
		t.Errorf("per_layer:\n %+v\nwant\n %+v", doc.PerLayer, asDefs(layerMetrics))
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
}
