package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// docSpec is a kindTest spec carrying a problem document, so retention
// of the document can be observed without running a design.
func docSpec(label string) Spec {
	return Spec{Kind: kindTest, Fig: label, Design: json.RawMessage(`{"doc":"` + label + `"}`)}
}

// traceHook is a test runner that records one span per run, so every
// finished job has a non-empty trace while it keeps its tracer.
func traceHook(ctx context.Context, j *Job) (Artifacts, error) {
	j.obs.Tracer.Start("run").End()
	return Artifacts{"out": []byte(j.spec.Fig)}, nil
}

// TestFinishedJobsReleaseTraceAndDocument: after retainedTraces+k jobs
// finish, the oldest k have no tracer and the newest retainedTraces keep
// theirs; every done job has dropped its document but kept its metrics
// and progress, and a resubmission of a released job still joins it.
func TestFinishedJobsReleaseTraceAndDocument(t *testing.T) {
	withHook(t, traceHook)
	s := newTestScheduler(t, Options{Workers: 1})

	const k = 3
	var hs []*Handle
	for i := 0; i < retainedTraces+k; i++ {
		h := mustSubmit(t, s, docSpec(fmt.Sprint(i)))
		if _, err := h.Wait(context.Background()); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		hs = append(hs, h)
	}
	for i, h := range hs {
		inst := h.Job().Instruments()
		if released := inst.Tracer == nil; released != (i < k) {
			t.Errorf("job %d: tracer released = %v, want %v", i, released, i < k)
		}
		if inst.Tracer != nil && inst.Tracer.SpanCount() == 0 {
			t.Errorf("job %d: retained tracer has no spans", i)
		}
		if inst.Metrics == nil || inst.Progress == nil {
			t.Errorf("job %d: metrics or progress released", i)
		}
		if d := h.Job().spec.Design; d != nil {
			t.Errorf("job %d: done job still holds its document %s", i, d)
		}
	}

	h := mustSubmit(t, s, docSpec("0"))
	if !h.Joined() || h.Job() != hs[0].Job() {
		t.Fatal("resubmission of a released done job did not join it")
	}
	if art, err := h.Wait(context.Background()); err != nil || string(art["out"]) != "0" {
		t.Fatalf("joined job: %v, artifact %q", err, art["out"])
	}
}

// TestQuarantinedJobKeepsDocument: a quarantined job keeps its document,
// because Retry re-runs its spec; the retried run sees the document and,
// once done, drops it.
func TestQuarantinedJobKeepsDocument(t *testing.T) {
	var heal atomic.Bool
	withHook(t, func(ctx context.Context, j *Job) (Artifacts, error) {
		if !heal.Load() {
			return nil, errors.New("permanent fault")
		}
		return Artifacts{"doc": j.spec.Design}, nil
	})
	s := newTestScheduler(t, Options{Workers: 1, Retry: fastRetry(2)})

	spec := docSpec("q")
	h := mustSubmit(t, s, spec)
	if _, err := h.Wait(context.Background()); err == nil {
		t.Fatal("faulty job succeeded")
	}
	if st := h.Status(); st.State != StateQuarantined {
		t.Fatalf("state = %s, want quarantined", st.State)
	}
	if string(h.Job().spec.Design) != string(spec.Design) {
		t.Fatalf("quarantined job's document = %s, want %s", h.Job().spec.Design, spec.Design)
	}

	heal.Store(true)
	h2, err := s.Retry(h.ID())
	if err != nil {
		t.Fatalf("Retry: %v", err)
	}
	art, err := h2.Wait(context.Background())
	if err != nil || string(art["doc"]) != string(spec.Design) {
		t.Fatalf("retried job: %v, saw document %q", err, art["doc"])
	}
	if d := h2.Job().spec.Design; d != nil {
		t.Errorf("retried done job still holds its document %s", d)
	}
}

// TestRestoredJobsDropDocument: done jobs restored from the state journal
// drop their document as well, while a restored quarantined job keeps it.
func TestRestoredJobsDropDocument(t *testing.T) {
	dir := t.TempDir()
	withHook(t, func(ctx context.Context, j *Job) (Artifacts, error) {
		if j.spec.Fig == "bad" {
			return nil, errors.New("permanent fault")
		}
		return Artifacts{"out": []byte("ok")}, nil
	})
	s1, err := New(Options{Workers: 1, Dir: dir, Retry: fastRetry(2)})
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"good", "bad"} {
		h := mustSubmit(t, s1, docSpec(label))
		h.Wait(context.Background())
	}
	if err := s1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2 := newTestScheduler(t, Options{Workers: 1, Dir: dir, Retry: fastRetry(2)})
	for label, keep := range map[string]bool{"good": false, "bad": true} {
		id, err := docSpec(label).Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		h, ok := s2.Get(id)
		if !ok {
			t.Fatalf("job %s not restored", label)
		}
		if kept := h.Job().spec.Design != nil; kept != keep {
			t.Errorf("restored %s job (%s) keeps its document = %v, want %v", label, h.Status().State, kept, keep)
		}
	}
}

// TestInstrumentsWhileReleasing reads jobs' instruments from other
// goroutines while their tracers are being released, as ftesd's HTTP
// handlers do; under -race it checks the hand-off is synchronized.
func TestInstrumentsWhileReleasing(t *testing.T) {
	withHook(t, traceHook)
	s := newTestScheduler(t, Options{Workers: 2})

	const n = 3 * retainedTraces
	hs := make([]*Handle, n)
	for i := range hs {
		hs[i] = mustSubmit(t, s, docSpec(fmt.Sprint(i)))
	}
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, h := range hs {
				<-h.Done()
				for _, o := range hs {
					if tr := o.Job().Instruments().Tracer; tr != nil {
						tr.SpanCount()
					}
				}
			}
		}()
	}
	wg.Wait()
	released := 0
	for _, h := range hs {
		if h.Job().Instruments().Tracer == nil {
			released++
		}
	}
	if released != n-retainedTraces {
		t.Errorf("%d of %d finished jobs released their tracer, want %d", released, n, n-retainedTraces)
	}
}
