package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Progress is the live-progress publisher of the observability layer: a
// concurrency-safe set of named phases, each tracking a monotonically
// advancing counter, an optional total, the best cost seen so far, and a
// moving completion rate from which an ETA is derived. Long-running
// explorations publish into it — core.Run per candidate architecture,
// the tabu search per iteration, the experiment harness per application
// or table row — and observers snapshot it: `paperbench -progress`
// renders a throttled stderr status line, and obshttp serves the
// snapshot as `/progress` JSON and as Prometheus gauges on `/metrics`.
//
// Like the tracer and the registry, a nil *Progress is the disabled
// publisher: Phase returns a nil *Phase whose methods are no-ops, so
// instrumented loops publish unconditionally and pay one pointer check
// when no publisher is installed. Publication is observation-only by
// construction — nothing in the search stack reads a Progress — so it
// can never alter results.
type Progress struct {
	mu     sync.Mutex
	phases map[string]*Phase
	order  []string
	now    func() time.Time // injectable clock for tests
}

// NewProgress returns an enabled, empty progress publisher.
func NewProgress() *Progress {
	return &Progress{phases: make(map[string]*Phase), now: time.Now}
}

// rateWindow is the number of recent Add samples the moving-rate
// estimate looks back over.
const rateWindow = 64

// progressSample is one (time, cumulative count) observation.
type progressSample struct {
	t time.Time
	n int64
}

// Phase is one named progress track. All methods are safe for concurrent
// use (they share the parent publisher's mutex) and safe on a nil
// receiver.
type Phase struct {
	pr      *Progress
	name    string
	started time.Time
	current int64
	total   int64
	best    float64
	hasBest bool
	done    bool
	// samples is a ring buffer of the most recent Add observations; head
	// is the next overwrite index once the ring is full.
	samples []progressSample
	head    int
}

// Phase returns the named phase, creating it on first use. Phases are
// reported in creation order.
func (p *Progress) Phase(name string) *Phase {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	ph := p.phases[name]
	if ph == nil {
		ph = &Phase{pr: p, name: name, started: p.now()}
		p.phases[name] = ph
		p.order = append(p.order, name)
	}
	return ph
}

// Add advances the phase counter by n (the counter never goes backwards;
// n ≤ 0 is ignored) and records a rate sample.
func (ph *Phase) Add(n int64) {
	if ph == nil || n <= 0 {
		return
	}
	ph.pr.mu.Lock()
	ph.current += n
	s := progressSample{t: ph.pr.now(), n: ph.current}
	if len(ph.samples) < rateWindow {
		ph.samples = append(ph.samples, s)
	} else {
		ph.samples[ph.head] = s
		ph.head = (ph.head + 1) % rateWindow
	}
	ph.pr.mu.Unlock()
}

// SetTotal sets the expected final count (0 = unknown).
func (ph *Phase) SetTotal(n int64) {
	if ph == nil {
		return
	}
	ph.pr.mu.Lock()
	ph.total = n
	ph.pr.mu.Unlock()
}

// AddTotal grows the expected final count; batched harnesses that learn
// their workload incrementally (one sweep point at a time) accumulate
// into the same phase.
func (ph *Phase) AddTotal(n int64) {
	if ph == nil {
		return
	}
	ph.pr.mu.Lock()
	ph.total += n
	ph.pr.mu.Unlock()
}

// Best records a candidate best cost; the phase keeps the minimum.
func (ph *Phase) Best(cost float64) {
	if ph == nil {
		return
	}
	ph.pr.mu.Lock()
	if !ph.hasBest || cost < ph.best {
		ph.best = cost
		ph.hasBest = true
	}
	ph.pr.mu.Unlock()
}

// Done marks the phase finished.
func (ph *Phase) Done() {
	if ph == nil {
		return
	}
	ph.pr.mu.Lock()
	ph.done = true
	ph.pr.mu.Unlock()
}

// PhaseStatus is a point-in-time view of one phase.
type PhaseStatus struct {
	Name    string `json:"name"`
	Current int64  `json:"current"`
	// Total is the expected final count (0 = unknown).
	Total int64 `json:"total,omitempty"`
	// Best is the best (lowest) cost reported so far; valid iff HasBest.
	Best    float64 `json:"best,omitempty"`
	HasBest bool    `json:"has_best,omitempty"`
	// RatePerSec is the moving completion rate over the recent sample
	// window (0 until two samples exist).
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// ETA estimates the remaining time from RatePerSec (0 when the total
	// or the rate is unknown, or the phase is done).
	ETA     time.Duration `json:"eta_ns,omitempty"`
	Elapsed time.Duration `json:"elapsed_ns"`
	Done    bool          `json:"done,omitempty"`
}

// ProgressStatus is a snapshot of every phase, in creation order.
type ProgressStatus struct {
	Phases []PhaseStatus `json:"phases"`
}

// Status snapshots all phases. A nil publisher snapshots empty.
func (p *Progress) Status() ProgressStatus {
	var s ProgressStatus
	if p == nil {
		return s
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.now()
	for _, name := range p.order {
		ph := p.phases[name]
		st := PhaseStatus{
			Name:    ph.name,
			Current: ph.current,
			Total:   ph.total,
			Best:    ph.best,
			HasBest: ph.hasBest,
			Elapsed: now.Sub(ph.started),
			Done:    ph.done,
		}
		if n := len(ph.samples); n >= 2 {
			first := ph.samples[0]
			if n == rateWindow {
				first = ph.samples[ph.head]
			}
			last := ph.samples[(ph.head+n-1)%n]
			if dt := last.t.Sub(first.t).Seconds(); dt > 0 {
				st.RatePerSec = float64(last.n-first.n) / dt
			}
		}
		if !ph.done && ph.total > 0 && ph.current < ph.total && st.RatePerSec > 0 {
			st.ETA = time.Duration(float64(ph.total-ph.current) / st.RatePerSec * float64(time.Second))
		}
		s.Phases = append(s.Phases, st)
	}
	return s
}

// StatusLine renders the snapshot as a single status line, the form the
// `paperbench -progress` stderr renderer prints.
func (s ProgressStatus) StatusLine() string {
	var parts []string
	for _, ph := range s.Phases {
		var b strings.Builder
		fmt.Fprintf(&b, "%s %d", ph.Name, ph.Current)
		if ph.Total > 0 {
			fmt.Fprintf(&b, "/%d (%.0f%%)", ph.Total, 100*float64(ph.Current)/float64(ph.Total))
		}
		switch {
		case ph.Done:
			b.WriteString(" done")
		case ph.RatePerSec > 0:
			fmt.Fprintf(&b, ", %.1f/s", ph.RatePerSec)
			if ph.ETA > 0 {
				fmt.Fprintf(&b, ", ETA %s", ph.ETA.Round(time.Second))
			}
		}
		if ph.HasBest {
			fmt.Fprintf(&b, ", best %g", ph.Best)
		}
		parts = append(parts, b.String())
	}
	return strings.Join(parts, " | ")
}
