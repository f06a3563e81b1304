package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds named counters and duration histograms. Like the
// tracer, a nil *Registry is the disabled registry: Counter and Histogram
// return nil instruments whose methods are no-ops, so instrumented code
// records unconditionally.
//
// A Registry is safe for concurrent use; instruments are created on first
// reference and shared by name thereafter.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	gaugeFns map[string]func() float64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		gaugeFns: make(map[string]func() float64),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named duration histogram, creating it on first
// use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a callback gauge: f is evaluated at snapshot time,
// so live values (cache sizes, in-flight counters) cost nothing on the
// hot path. Re-registering a name replaces the callback; f must be safe
// to call from any goroutine.
func (r *Registry) GaugeFunc(name string, f func() float64) {
	if r == nil || f == nil {
		return
	}
	r.mu.Lock()
	r.gaugeFns[name] = f
	r.mu.Unlock()
}

// UnregisterGaugeFunc removes a callback gauge registered with GaugeFunc,
// releasing whatever state the callback closed over. Unknown names and nil
// registries are no-ops, so teardown paths can call it unconditionally.
func (r *Registry) UnregisterGaugeFunc(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	delete(r.gaugeFns, name)
	r.mu.Unlock()
}

// Gauge is a settable instantaneous float64. A nil *Gauge is a no-op.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Counter is a monotonically adjustable int64. A nil *Counter is a no-op.
type Counter struct{ v atomic.Int64 }

// Add adds d to the counter.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// histBuckets is the number of power-of-two duration buckets: bucket i
// counts observations in [2^(i-1) µs, 2^i µs), spanning sub-microsecond
// to ~35 minutes — wider than anything the optimization stack produces.
const histBuckets = 32

// Histogram aggregates durations: count, sum, min, max and a
// power-of-two bucket distribution. A nil *Histogram is a no-op.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
	buckets [histBuckets]int64
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d time.Duration) int {
	us := uint64(d / time.Microsecond)
	b := bits.Len64(us)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe records one duration (negative durations count as zero).
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.mu.Lock()
	if h.count == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.count++
	h.sum += d
	h.buckets[bucketOf(d)]++
	h.mu.Unlock()
}

// HistogramSnapshot is one histogram's aggregate state.
type HistogramSnapshot struct {
	Count int64         `json:"count"`
	Sum   time.Duration `json:"sum_ns"`
	Min   time.Duration `json:"min_ns"`
	Max   time.Duration `json:"max_ns"`
	// Buckets lists the non-empty buckets as (upper bound, count),
	// ascending.
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// HistogramBucket is one non-empty histogram bucket.
type HistogramBucket struct {
	UpperBound time.Duration `json:"le_ns"`
	Count      int64         `json:"count"`
}

// Mean returns the mean observed duration.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		s.Buckets = append(s.Buckets, HistogramBucket{
			UpperBound: time.Duration(uint64(1)<<uint(i)) * time.Microsecond,
			Count:      c,
		})
	}
	return s
}

// Snapshot is a point-in-time copy of the whole registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot returns a copy of all instruments (callback gauges are
// evaluated now, outside the registry lock). A nil registry snapshots
// empty.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Counters: map[string]int64{}, Histograms: map[string]HistogramSnapshot{}}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	gaugeFns := make(map[string]func() float64, len(r.gaugeFns))
	for k, v := range r.gaugeFns {
		gaugeFns[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()
	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	if len(gauges)+len(gaugeFns) > 0 {
		s.Gauges = make(map[string]float64, len(gauges)+len(gaugeFns))
		for k, v := range gauges {
			s.Gauges[k] = v.Value()
		}
		for k, f := range gaugeFns {
			s.Gauges[k] = f()
		}
	}
	for k, v := range hists {
		s.Histograms[k] = v.snapshot()
	}
	return s
}

// WriteText renders the registry as a sorted plain-text dump, one
// instrument per line.
func (r *Registry) WriteText(w io.Writer) error {
	s := r.Snapshot()
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(w, "%s %d\n", name, s.Counters[name]); err != nil {
			return err
		}
	}
	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(w, "%s %g\n", name, s.Gauges[name]); err != nil {
			return err
		}
	}
	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		if _, err := fmt.Fprintf(w, "%s count=%d sum=%v mean=%v min=%v max=%v\n",
			name, h.Count, h.Sum.Round(time.Microsecond), h.Mean().Round(time.Microsecond),
			h.Min.Round(time.Microsecond), h.Max.Round(time.Microsecond)); err != nil {
			return err
		}
	}
	return nil
}
