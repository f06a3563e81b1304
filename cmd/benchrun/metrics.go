package main

import "slices"

// metricDef describes one metric the benchmark reports.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression. Layer
	// metrics have none.
	bound float64
}

// endToEnd lists the metrics a user of the system sees, in report order.
// BENCHMARK.json carries the same names, units and bounds
// (TestCatalogueMatchesBenchmarkJSON).
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms", "lower", 0.20},
	{"latency_tail_ms", "ms", "lower", 0.20},
	{"throughput_ops_s", "ops/s", "higher", 0.20},
	{"cpu_ms_per_op", "ms", "lower", 0.20},
	{"alloc_mb_per_op", "MB", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// failFrac is printed and recorded with the end-to-end metrics but is not
// in BENCHMARK.json: it is 0 on every healthy run, and the result line
// already carries the failure count. compare treats any rise as a
// regression.
var failFrac = metricDef{"fail_frac", "ratio", "lower", 0}

// layerMetrics lists the per-layer metrics of the traced pass. Every
// workload reports all of them; a layer the workload does not exercise, or
// cannot observe from outside, reads 0 (README.md says which).
var layerMetrics = []metricDef{
	{"core.archs_explored", "count", "lower", 0},
	{"core.archs_pruned", "count", "higher", 0},
	{"core.self_ms", "ms", "lower", 0},
	{"core.parallel_latency_ratio", "ratio", "lower", 0},
	{"mapping.iterations", "count", "lower", 0},
	{"mapping.moves", "count", "lower", 0},
	{"mapping.self_ms", "ms", "lower", 0},
	{"redundancy.opt_requests", "count", "lower", 0},
	{"redundancy.opt_hit_frac", "ratio", "higher", 0},
	{"redundancy.self_ms", "ms", "lower", 0},
	{"evalengine.evaluations", "count", "lower", 0},
	{"evalengine.hit_frac", "ratio", "higher", 0},
	{"evalengine.evictions", "count", "lower", 0},
	{"evalengine.invalidations", "count", "lower", 0},
	{"sfp.node_builds", "count", "lower", 0},
	{"sfp.hit_frac", "ratio", "higher", 0},
	{"sfp.busy_ms", "ms", "lower", 0},
	{"sched.builds", "count", "lower", 0},
	{"sched.busy_ms", "ms", "lower", 0},
	{"sched.us_per_build", "us", "lower", 0},
	{"gc.cpu_frac", "ratio", "lower", 0},
	{"obs.trace_overhead_frac", "ratio", "lower", 0},
	{"obs.spans_per_op", "count", "lower", 0},
	{"evalcache.cold_ratio", "ratio", "lower", 0},
	{"evalcache.warm_ratio", "ratio", "lower", 0},
	{"evalcache.disk_mb", "MB", "lower", 0},
	{"ftesd.submit_p50_ms", "ms", "lower", 0},
	{"jobs.queue_wait_p50_ms", "ms", "lower", 0},
	{"jobs.run_p50_ms", "ms", "lower", 0},
	{"jobs.overhead_p50_ms", "ms", "lower", 0},
	{"jobs.dedup_frac", "ratio", "higher", 0},
	{"jobs.dedup_p50_ms", "ms", "lower", 0},
	{"runstate.state_bytes_per_job", "bytes", "lower", 0},
	{"shard.worker_max_ms", "ms", "lower", 0},
	{"shard.worker_skew", "ratio", "lower", 0},
	{"shard.merge_ms", "ms", "lower", 0},
	{"shard.dir_bytes", "bytes", "lower", 0},
	{"layers.unattributed_frac", "ratio", "lower", 0},
}

// metric is one reported value with its unit and the number of samples
// behind it.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// metricSet collects a pass's metrics by name.
type metricSet map[string]metric

// set records a metric, taking its unit from the catalogue.
func (m metricSet) set(name string, value float64, samples int) {
	m[name] = metric{Value: value, Unit: unitOf(name), Samples: samples}
}

// fill adds every catalogue entry missing from m as 0 with no samples, so
// each pass reports the full list.
func (m metricSet) fill(defs []metricDef) {
	for _, d := range defs {
		if _, ok := m[d.name]; !ok {
			m[d.name] = metric{Unit: d.unit}
		}
	}
}

// timedMetrics are what a timed pass reports.
var timedMetrics = append(slices.Clone(endToEnd), failFrac)

// catalogue lists every metric in report order.
var catalogue = slices.Concat(timedMetrics, layerMetrics)

// names returns the names of the metrics in m in report order.
func (m metricSet) names() []string {
	var out []string
	for _, d := range catalogue {
		if _, ok := m[d.name]; ok {
			out = append(out, d.name)
		}
	}
	return out
}

func unitOf(name string) string {
	for _, d := range catalogue {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}
