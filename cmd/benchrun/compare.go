package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// compareMain implements "benchrun compare A B": for each workload and
// end-to-end metric it sets the runs recorded in A (the base) against
// those in B (the change) and prints a verdict.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchrun compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchFile := fs.String("bench", "", "BENCHMARK.json holding the bounds (default: the repository's)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: benchrun compare [-bench BENCHMARK.json] BASE.jsonl CHANGE.jsonl")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchrun compare:", err)
		return 2
	}
	if *benchFile == "" {
		root, err := findRoot("")
		if err != nil {
			return fail(err)
		}
		*benchFile = filepath.Join(root, "BENCHMARK.json")
	}
	defs, err := readBounds(*benchFile)
	if err != nil {
		return fail(err)
	}
	a, err := readRecords(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	b, err := readRecords(fs.Arg(1))
	if err != nil {
		return fail(err)
	}
	rows, err := compareSets(a, b, defs)
	if err != nil {
		return fail(err)
	}
	printComparison(stdout, rows)
	for _, r := range rows {
		if r.verdict == "regressed" {
			return 1
		}
	}
	return 0
}

// readBounds reads the end-to-end metrics of a BENCHMARK.json.
func readBounds(path string) ([]metricDef, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var defs []metricDef
	for _, m := range doc.EndToEnd {
		defs = append(defs, metricDef{m.Name, m.Unit, m.Better, m.Bound})
	}
	if len(defs) == 0 {
		return nil, fmt.Errorf("%s lists no end_to_end metrics", path)
	}
	return defs, nil
}

// comparison is one row of a compare report.
type comparison struct {
	workload string
	def      metricDef
	base     []float64
	change   []float64
	verdict  string
}

// compareSets pairs the timed passes of two record sets by workload. It
// refuses records measured on different core counts: ftesd runs nproc
// workers and the collector uses every core, so the numbers do not
// transfer.
func compareSets(base, change []*record, defs []metricDef) ([]comparison, error) {
	nproc := 0
	for _, set := range [][]*record{base, change} {
		for _, rec := range set {
			if nproc == 0 {
				nproc = rec.Nproc
			}
			if rec.Nproc != nproc {
				return nil, fmt.Errorf("refusing to compare records with different nproc (%d and %d)", nproc, rec.Nproc)
			}
		}
	}
	defs = append(slices.Clone(defs), failFrac)
	var rows []comparison
	for _, w := range workloads {
		a, b := timedValues(base, w.name), timedValues(change, w.name)
		if len(a) == 0 && len(b) == 0 {
			continue
		}
		for _, d := range defs {
			row := comparison{workload: w.name, def: d}
			for _, v := range a {
				row.base = append(row.base, v[d.name])
			}
			for _, v := range b {
				row.change = append(row.change, v[d.name])
			}
			row.verdict = verdict(d, row.base, row.change)
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// timedValues returns, per record in run order, the metric values of the
// workload's timed pass. The latency metrics are recomputed from the raw
// samples and the pass's speed scale.
func timedValues(recs []*record, workload string) []map[string]float64 {
	var out []map[string]float64
	for _, rec := range recs {
		for _, res := range rec.Results {
			if res.Workload != workload || res.Trace {
				continue
			}
			v := map[string]float64{}
			for name, m := range res.Metrics {
				v[name] = m.Value
			}
			if len(res.LatenciesMs) > 0 {
				k := res.SpeedScale
				v["latency_p50_ms"] = k * median(res.LatenciesMs)
				v["latency_tail_ms"] = k * percentile(res.LatenciesMs, res.TailPct)
			}
			out = append(out, v)
		}
	}
	return out
}

// verdict judges a change against its base on one metric:
//
//   - regressed: the change's median is worse than the base's by more
//     than the bound (for fail_frac, any failure at all);
//   - improved: at least ten runs paired in order, the change better in at
//     least nine tenths of the pairs (ties count for neither), and the
//     medians further apart than the base's interquartile range;
//   - unresolved: either side's spread (IQR over median) exceeds the bound,
//     unless every change run is better than every base run — or there
//     are too few runs to tell;
//   - ok: none of these.
func verdict(d metricDef, base, change []float64) string {
	if d.name == failFrac.name {
		for _, v := range change {
			if v > 0 {
				return "regressed"
			}
		}
		return "ok"
	}
	if len(base) < 2 || len(change) < 2 {
		return "unresolved"
	}
	better := func(x, y float64) bool { // x better than y
		if d.better == "higher" {
			return x > y
		}
		return x < y
	}
	mb, mc := median(base), median(change)
	worse := (mc - mb) / math.Abs(mb)
	if d.better == "higher" {
		worse = -worse
	}
	if worse > d.bound {
		return "regressed"
	}
	pairs := min(len(base), len(change))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(change[i], base[i]) {
			wins++
		}
	}
	q1, _, q3 := quartiles(base)
	if pairs >= 10 && wins*10 >= pairs*9 && better(mc, mb) && math.Abs(mc-mb) > q3-q1 {
		return "improved"
	}
	if spread(base) > d.bound || spread(change) > d.bound {
		worstChange, bestBase := change[0], base[0]
		for _, v := range change {
			if better(worstChange, v) {
				worstChange = v
			}
		}
		for _, v := range base {
			if better(v, bestBase) {
				bestBase = v
			}
		}
		if !better(worstChange, bestBase) {
			return "unresolved"
		}
	}
	return "ok"
}

func printComparison(w io.Writer, rows []comparison) {
	fmt.Fprintf(w, "%-11s %-17s %-6s %26s %26s %8s  %s\n", "workload", "metric", "unit",
		"base median (IQR, n)", "change median (IQR, n)", "change", "verdict")
	side := func(xs []float64) string {
		if len(xs) == 0 {
			return "-"
		}
		q1, q2, q3 := quartiles(xs)
		if q2 == 0 {
			return fmt.Sprintf("%.4g (±%.4g, %d)", q2, q3-q1, len(xs))
		}
		return fmt.Sprintf("%.4g (±%.1f%%, %d)", q2, 100*(q3-q1)/math.Abs(q2), len(xs))
	}
	for _, r := range rows {
		delta := "-"
		if len(r.base) > 0 && len(r.change) > 0 {
			if mb := median(r.base); mb != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(median(r.change)-mb)/math.Abs(mb))
			}
		}
		fmt.Fprintf(w, "%-11s %-17s %-6s %26s %26s %8s  %s\n", r.workload, r.def.name, r.def.unit,
			side(r.base), side(r.change), delta, r.verdict)
	}
}
