// Package jobs is the orchestration layer behind cmd/paperbench and
// cmd/ftesd. RunFigure renders one figure for both binaries: paperbench
// calls it directly, once per figure. ftesd runs each exploration as a
// Job (spec → fingerprint → run → artifacts) on a Scheduler with one
// FIFO queue, a bounded worker pool, per-job cooperative timeouts and
// journal-backed durability.
//
// A Job's identity is the runstate fingerprint of its Spec, which makes
// jobs content-addressable: two identical submissions — the same figure
// over the same workload, or the same specio design problem — share one
// underlying run, and both submitters see its result. With a state
// directory configured, every submission and completion is journaled;
// after a crash (including SIGKILL) the next Scheduler re-enqueues every
// in-flight job, and figure jobs additionally resume row by row from
// their per-job row journal, so the re-produced artifact is byte-identical
// to an uninterrupted run.
//
// Everything the figures need — context cancellation with deterministic
// partial results, panic isolation, runstate journals, obs instruments
// servable over obshttp — is wired through here, so the binaries stay
// thin clients.
package jobs

import (
	"fmt"
	"time"

	"encoding/json"

	"repro/internal/obs"
	"repro/internal/runstate"
)

// Job kinds.
const (
	// KindFigure regenerates one paperbench figure (a table artifact).
	KindFigure = "figure"
	// KindDesign runs one design optimization over a specio document.
	KindDesign = "design"
	// kindTest is reserved for scheduler tests (a hook-provided runner).
	kindTest = "test"
)

// ArtifactTable is the artifact name of a figure job's rendered table —
// byte-identical to what cmd/paperbench prints for the same flags.
const ArtifactTable = "table.txt"

// ArtifactIncomplete is the artifact name of a partial (degraded) merge's
// machine-readable gap report: which rows are missing and which shard
// owns each, so an operator knows exactly what to re-run.
const ArtifactIncomplete = "incomplete.json"

// Artifact names of a design job.
const (
	// ArtifactResultText is the human-readable design summary.
	ArtifactResultText = "result.txt"
	// ArtifactResultJSON is the machine-readable design result.
	ArtifactResultJSON = "result.json"
)

// Spec is the content of a job: everything that determines its result,
// and nothing else — observability and timeouts stay outside it
// precisely so that they do not perturb the fingerprint two identical
// explorations share. A figure spec always describes the whole sweep:
// a paperbench shard worker passes its slice coordinates to RunFigure
// beside the spec, so no job id or rows-<id>.jsonl binding depends on
// how a sweep was partitioned.
type Spec struct {
	// Kind selects the runner: KindFigure or KindDesign.
	Kind string `json:"kind"`

	// Figure jobs (KindFigure).

	// Fig names the figure: 6a, 6b, 6c, 6d, cc, policies, simulation,
	// runtime or ablation.
	Fig string `json:"fig,omitempty"`
	// Apps is the number of synthetic applications per process count.
	Apps int `json:"apps,omitempty"`
	// Procs lists the application sizes.
	Procs []int `json:"procs,omitempty"`
	// Seed bases the deterministic workload generation.
	Seed int64 `json:"seed,omitempty"`
	// Workers bounds batch parallelism across applications (0 = cores).
	Workers int `json:"workers,omitempty"`
	// AppTimeout is the per-application deadline (0 = none).
	AppTimeout time.Duration `json:"app_timeout,omitempty"`
	// Markdown renders tables as Markdown instead of ASCII.
	Markdown bool `json:"markdown,omitempty"`

	// Design jobs (KindDesign).

	// Design is the specio problem document.
	Design json.RawMessage `json:"design,omitempty"`
	// Strategy is OPT (default), MIN or MAX.
	Strategy string `json:"strategy,omitempty"`
	// MaxCost is the architecture cost bound ArC (0 = unbounded).
	MaxCost float64 `json:"max_cost,omitempty"`
	// Slack is the recovery-slack model: shared (default) or per-process.
	Slack string `json:"slack,omitempty"`
}

// figureTitles maps figure names to the display titles paperbench prints.
var figureTitles = map[string]string{
	"6a":         "Fig. 6a",
	"6b":         "Fig. 6b",
	"6c":         "Fig. 6c",
	"6d":         "Fig. 6d",
	"cc":         "Cruise controller",
	"policies":   "Policy comparison",
	"simulation": "Simulation vs analysis",
	"runtime":    "Strategy runtime",
	"ablation":   "Ablations",
}

// figureOrder is the canonical "-fig all" execution order.
var figureOrder = []string{"6a", "6b", "6c", "6d", "cc", "policies", "simulation", "runtime", "ablation"}

// FigureOrder returns the canonical figure order of a full run.
func FigureOrder() []string {
	out := make([]string, len(figureOrder))
	copy(out, figureOrder)
	return out
}

// KnownFigure reports whether fig names a figure job.
func KnownFigure(fig string) bool { _, ok := figureTitles[fig]; return ok }

// FigureTitle returns the display title of a figure ("" when unknown).
func FigureTitle(fig string) string { return figureTitles[fig] }

// CheckShardable refuses to shard a figure that is not a sweep: every
// figure but cc, one fixed instance, shards.
func CheckShardable(fig string) error {
	if fig == "cc" {
		return fmt.Errorf("jobs: figure cc is not shardable (one fixed instance, not a sweep)")
	}
	return nil
}

// Validate checks that the spec describes a runnable job.
func (s Spec) Validate() error {
	switch s.Kind {
	case KindFigure:
		if !KnownFigure(s.Fig) {
			return fmt.Errorf("jobs: unknown figure %q", s.Fig)
		}
		if s.Fig != "cc" {
			if s.Apps <= 0 {
				return fmt.Errorf("jobs: figure %s needs apps > 0", s.Fig)
			}
			if len(s.Procs) == 0 {
				return fmt.Errorf("jobs: figure %s needs at least one process count", s.Fig)
			}
		}
		return nil
	case KindDesign:
		if len(s.Design) == 0 {
			return fmt.Errorf("jobs: design job has no specio document")
		}
		switch s.Strategy {
		case "", "OPT", "MIN", "MAX":
		default:
			return fmt.Errorf("jobs: unknown strategy %q (want OPT, MIN or MAX)", s.Strategy)
		}
		switch s.Slack {
		case "", "shared", "per-process":
		default:
			return fmt.Errorf("jobs: unknown slack model %q (want shared or per-process)", s.Slack)
		}
		return nil
	case kindTest:
		if testRunHook == nil {
			return fmt.Errorf("jobs: test jobs need a test hook")
		}
		return nil
	default:
		return fmt.Errorf("jobs: unknown job kind %q (want %s or %s)", s.Kind, KindFigure, KindDesign)
	}
}

// Fingerprint derives the job's content-addressed identity. Identical
// specs fingerprint identically, which is what drives submission dedup
// and binds each per-job row journal to exactly one spec.
func (s Spec) Fingerprint() (string, error) { return runstate.Fingerprint(s) }

// Artifacts are a job's result files by name. Figure jobs produce
// ArtifactTable; design jobs produce ArtifactResultText and
// ArtifactResultJSON. A canceled job's artifacts hold its deterministic
// best-so-far partial output.
type Artifacts map[string][]byte

// Instruments bundles a run's observability hooks (nil disables each).
// paperbench passes its process-wide set to RunFigure, so -serve, -trace
// and -metrics see every figure in one place; the scheduler creates a
// fresh set per job, on which ftesd mounts obshttp handlers.
type Instruments struct {
	Tracer   *obs.Tracer
	Metrics  *obs.Registry
	Progress *obs.Progress
	Log      *obs.Logger
	// Events is the job's scope into the scheduler's event log, set when
	// Options.Events is configured; runners emit low-rate lifecycle events
	// (app timeouts) through it.
	Events *obs.EventScope
}

// Status is a point-in-time snapshot of one job.
type Status struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`
	Fig  string `json:"fig,omitempty"`
	// State is queued, running, done, failed, canceled, interrupted
	// (stopped by a scheduler shutdown; it resumes on the next start when
	// a state directory is configured) or quarantined (failed permanently
	// or exhausted its retry budget; held until Retry re-opens it).
	State string `json:"state"`
	Error string `json:"error,omitempty"`
	// Submits counts submissions collapsed into this job (≥ 1); values
	// above 1 are deduplicated resubmissions of the same spec.
	Submits int `json:"submits"`
	// Attempts counts runs started across the job's durable life,
	// monotonic across crashes, restarts and manual retries.
	Attempts    int       `json:"attempts,omitempty"`
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at"`
	FinishedAt  time.Time `json:"finished_at"`
	// Artifacts lists the artifact names available once the job is done.
	Artifacts []string `json:"artifacts,omitempty"`
}

// Job states.
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateDone        = "done"
	StateFailed      = "failed"
	StateCanceled    = "canceled"
	StateInterrupted = "interrupted"
	StateQuarantined = "quarantined"
)
