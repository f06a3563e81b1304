package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/paper"
	"repro/internal/sfp"
)

// TestProgressAndLogWiring: a run with Progress and Log installed must
// publish the per-arch and per-iteration phases and the run-done record,
// and return a result identical to the bare run — observation only.
func TestProgressAndLogWiring(t *testing.T) {
	app := paper.Fig1Application()
	pl := paper.Fig1Platform()
	bare, err := Run(app, pl, Options{
		Goal: sfp.Goal{Gamma: paper.Fig1Gamma, Tau: paper.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	pr := obs.NewProgress()
	var logBuf bytes.Buffer
	lg, err := obs.NewFlagLogger(&logBuf, "text", "debug")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(app, pl, Options{
		Goal:     sfp.Goal{Gamma: paper.Fig1Gamma, Tau: paper.Hour},
		Progress: pr,
		Log:      lg,
		Metrics:  obs.NewRegistry(),
		Tracer:   obs.NewTracer(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible != bare.Feasible || res.Cost != bare.Cost ||
		res.ArchsExplored != bare.ArchsExplored ||
		!reflect.DeepEqual(res.Mapping, bare.Mapping) {
		t.Errorf("observed run diverged: %+v vs %+v", res, bare)
	}

	st := pr.Status()
	byName := map[string]obs.PhaseStatus{}
	for _, ph := range st.Phases {
		byName[ph.Name] = ph
	}
	archs := byName["core.archs"]
	if archs.Current != int64(res.ArchsExplored) {
		t.Errorf("core.archs = %d, want %d (ArchsExplored)", archs.Current, res.ArchsExplored)
	}
	if !archs.HasBest || archs.Best != res.Cost {
		t.Errorf("core.archs best = %v (has=%v), want %v", archs.Best, archs.HasBest, res.Cost)
	}
	if byName["mapping.iterations"].Current == 0 {
		t.Error("mapping.iterations never ticked")
	}
	for _, want := range []string{"core.run done", "feasible=true", "span="} {
		if !strings.Contains(logBuf.String(), want) {
			t.Errorf("log missing %q:\n%s", want, logBuf.String())
		}
	}
}
