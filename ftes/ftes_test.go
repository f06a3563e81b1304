package ftes_test

import (
	"context"
	"errors"
	"testing"

	"repro/ftes"
)

// TestQuickstartFlow exercises the public facade end to end: build an
// application and platform through the exported API, run the design
// strategy, inspect the result.
func TestQuickstartFlow(t *testing.T) {
	b := ftes.NewBuilder("demo")
	b.Graph("G", 450)
	p1 := b.Process("P1", 15)
	p2 := b.Process("P2", 15)
	b.Edge("m1", p1, p2, 8)
	b.Period(450)
	app, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	pl := &ftes.Platform{
		Nodes: []ftes.Node{{
			ID:   0,
			Name: "N1",
			Versions: []ftes.HVersion{
				{Level: 1, Cost: 10, WCET: []float64{80, 60}, FailProb: []float64{4e-2, 3e-2}},
				{Level: 2, Cost: 20, WCET: []float64{100, 75}, FailProb: []float64{4e-4, 3e-4}},
			},
		}},
		Bus: ftes.BusSpec{SlotLen: 5},
	}

	res, err := ftes.Run(app, pl, ftes.Options{
		Goal: ftes.Goal{Gamma: 1e-5, Tau: ftes.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("demo should be feasible")
	}
	if res.Cost != 20 {
		t.Errorf("cost = %v, want 20 (hardened version needed)", res.Cost)
	}
}

// TestFacadeAnalysis checks the exported reliability analysis against the
// Appendix A.2 value.
func TestFacadeAnalysis(t *testing.T) {
	n, err := ftes.NewReliabilityNode([]float64{1.2e-5, 1.3e-5}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if n.PrZero() != 0.99997500015 {
		t.Errorf("PrZero = %.11f", n.PrZero())
	}
	union := ftes.SystemFailureProb([]float64{n.FailureProb(1), n.FailureProb(1)})
	rel := ftes.Reliability(union, 360, ftes.Hour)
	if rel < 1-1e-5 {
		t.Errorf("reliability %v should meet 1-1e-5", rel)
	}
}

// TestFacadeGenerator checks the exported synthetic generator.
func TestFacadeGenerator(t *testing.T) {
	inst, err := ftes.Generate(ftes.DefaultGenConfig(1, 20, 1e-11, 25))
	if err != nil {
		t.Fatal(err)
	}
	if inst.App.NumProcesses() != 20 {
		t.Errorf("generated %d processes", inst.App.NumProcesses())
	}
}

// TestFacadeCampaign checks the exported Monte-Carlo campaign.
func TestFacadeCampaign(t *testing.T) {
	c := ftes.Campaign{NodeProbs: [][]float64{{0.1}}, Ks: []int{1}, Iterations: 10000, Seed: 1}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Analytic: p² = 0.01.
	if res.FailureProb() < 0.005 || res.FailureProb() > 0.02 {
		t.Errorf("campaign failure prob %v, want ≈0.01", res.FailureProb())
	}
}

// TestFacadeScheduleAndRedundancy drives the scheduler and redundancy
// optimizer through the facade.
func TestFacadeScheduleAndRedundancy(t *testing.T) {
	b := ftes.NewBuilder("sched")
	b.Graph("G", 400)
	p1 := b.Process("A", 10)
	p2 := b.Process("B", 10)
	b.Edge("e", p1, p2, 4)
	app := b.MustBuild()

	node := ftes.Node{
		ID:   0,
		Name: "N",
		Versions: []ftes.HVersion{
			{Level: 1, Cost: 5, WCET: []float64{50, 60}, FailProb: []float64{1e-4, 1e-4}},
		},
	}
	ar := ftes.NewArchitecture([]*ftes.Node{&node})
	s, err := ftes.BuildSchedule(ftes.ScheduleInput{
		App: app, Arch: ar, Mapping: []int{0, 0}, Ks: []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 110 fault-free + 1×(60+10) shared slack.
	if s.Length != 180 {
		t.Errorf("schedule length = %v, want 180", s.Length)
	}

	ks, ok, err := ftes.ReExecutionOpt(app, ar, []int{0, 0}, []int{1}, ftes.Goal{Gamma: 1e-5, Tau: ftes.Hour}, ftes.DefaultMaxK)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || len(ks) != 1 {
		t.Errorf("ReExecutionOpt: ok=%v ks=%v", ok, ks)
	}
}

// TestFacadeRunContext exercises the cancellation surface of the facade:
// RunContext matches Run when the context stays live, and a canceled
// context yields the typed ErrCanceled.
func TestFacadeRunContext(t *testing.T) {
	inst, err := ftes.Generate(ftes.DefaultGenConfig(1, 20, 1e-11, 25))
	if err != nil {
		t.Fatal(err)
	}
	opts := ftes.Options{Goal: inst.Goal, Strategy: ftes.OPT}
	want, err := ftes.Run(inst.App, inst.Platform, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ftes.RunContext(context.Background(), inst.App, inst.Platform, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != want.Cost || got.Feasible != want.Feasible {
		t.Errorf("RunContext diverged from Run: cost %v vs %v", got.Cost, want.Cost)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ftes.RunContext(ctx, inst.App, inst.Platform, opts)
	if !errors.Is(err, ftes.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if res == nil {
		t.Fatal("canceled run returned no partial result")
	}
}
