package ftes

// This file exports the job orchestration layer: the content-addressed
// scheduler behind cmd/paperbench and cmd/ftesd, for embedding the same
// run/sweep machinery (fair-share queueing, dedup, journal-backed crash
// resume) in other programs.

import (
	"context"

	"repro/internal/jobs"
)

// Job orchestration.
type (
	// JobSpec is the content of a job — everything that determines its
	// result. Identical specs share one run.
	JobSpec = jobs.Spec
	// JobScheduler runs jobs from a priority + fair-share queue on a
	// bounded worker pool, with optional journal-backed durability.
	JobScheduler = jobs.Scheduler
	// JobSchedulerOptions configures NewJobScheduler.
	JobSchedulerOptions = jobs.Options
	// JobSubmitOptions carry tenancy, priority, timeout and observability
	// for one submission (none of it perturbs the job's fingerprint).
	JobSubmitOptions = jobs.SubmitOptions
	// JobHandle is a submitter's reference to a (possibly shared) job.
	JobHandle = jobs.Handle
	// JobInfo is a point-in-time snapshot of one job.
	JobInfo = jobs.Status
	// JobArtifacts are a job's result files by name.
	JobArtifacts = jobs.Artifacts
	// JobInstruments bundles a job's observability hooks.
	JobInstruments = jobs.Instruments
)

// Job kinds and artifact names.
const (
	// JobKindFigure regenerates one paperbench figure.
	JobKindFigure = jobs.KindFigure
	// JobKindDesign runs one design optimization over a specio document.
	JobKindDesign = jobs.KindDesign
	// JobArtifactTable is a figure job's rendered table.
	JobArtifactTable = jobs.ArtifactTable
	// JobArtifactResultText is a design job's human-readable summary.
	JobArtifactResultText = jobs.ArtifactResultText
	// JobArtifactResultJSON is a design job's machine-readable result.
	JobArtifactResultJSON = jobs.ArtifactResultJSON
)

// NewJobScheduler builds a scheduler (restoring durable state when
// Options.Dir is set) and starts its worker pool. Stop it with Close.
func NewJobScheduler(o JobSchedulerOptions) (*JobScheduler, error) { return jobs.New(o) }

// SubmitJob enqueues the spec on s — or joins the existing job with the
// same fingerprint — and returns a handle on it.
func SubmitJob(s *JobScheduler, spec JobSpec, o JobSubmitOptions) (*JobHandle, error) {
	return s.Submit(spec, o)
}

// JobStatus snapshots the job with the given id.
func JobStatus(s *JobScheduler, id string) (JobInfo, bool) {
	h, ok := s.Get(id)
	if !ok {
		return JobInfo{}, false
	}
	return h.Status(), true
}

// WaitJob blocks until the job finishes (or ctx cancels) and returns its
// artifacts and error.
func WaitJob(ctx context.Context, h *JobHandle) (JobArtifacts, error) { return h.Wait(ctx) }
