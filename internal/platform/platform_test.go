package platform

import (
	"math"
	"strings"
	"testing"

	"repro/internal/appmodel"
)

// twoNodePlatform builds a platform shaped like the paper's Fig. 1 nodes
// (values simplified) over 2 processes.
func twoNodePlatform() *Platform {
	return &Platform{
		Nodes: []Node{
			{
				ID:   0,
				Name: "N1",
				Versions: []HVersion{
					{Level: 1, Cost: 16, WCET: []float64{60, 75}, FailProb: []float64{1.2e-3, 1.3e-3}},
					{Level: 2, Cost: 32, WCET: []float64{75, 90}, FailProb: []float64{1.2e-5, 1.3e-5}},
				},
			},
			{
				ID:   1,
				Name: "N2",
				Versions: []HVersion{
					{Level: 1, Cost: 20, WCET: []float64{50, 50}, FailProb: []float64{1e-3, 1.2e-3}},
					{Level: 2, Cost: 40, WCET: []float64{60, 60}, FailProb: []float64{1e-5, 1.2e-5}},
				},
			},
		},
		Bus: BusSpec{SlotLen: 5},
	}
}

func TestValidateOK(t *testing.T) {
	p := twoNodePlatform()
	if err := p.Validate(2); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Platform)
		want   string
	}{
		{"no nodes", func(p *Platform) { p.Nodes = nil }, "no computation nodes"},
		{"bad node id", func(p *Platform) { p.Nodes[1].ID = 5 }, "dense ID"},
		{"no versions", func(p *Platform) { p.Nodes[0].Versions = nil }, "no h-versions"},
		{"level gap", func(p *Platform) { p.Nodes[0].Versions[1].Level = 3 }, "dense ascending levels"},
		{"table size", func(p *Platform) { p.Nodes[0].Versions[0].WCET = []float64{1} }, "tables sized"},
		{"zero cost", func(p *Platform) { p.Nodes[0].Versions[0].Cost = 0 }, "non-positive cost"},
		{"zero wcet", func(p *Platform) { p.Nodes[0].Versions[0].WCET[0] = 0 }, "positive finite"},
		{"nan wcet", func(p *Platform) { p.Nodes[0].Versions[0].WCET[0] = math.NaN() }, "positive finite"},
		{"prob one", func(p *Platform) { p.Nodes[0].Versions[0].FailProb[0] = 1 }, "in [0,1)"},
		{"prob negative", func(p *Platform) { p.Nodes[0].Versions[0].FailProb[0] = -0.1 }, "in [0,1)"},
		{"cost not increasing", func(p *Platform) { p.Nodes[0].Versions[1].Cost = 16 }, "cost not increasing"},
		{"wcet decreasing", func(p *Platform) { p.Nodes[0].Versions[1].WCET[0] = 10 }, "WCET[0] decreases"},
		{"prob increasing", func(p *Platform) { p.Nodes[0].Versions[1].FailProb[0] = 0.5 }, "FailProb[0] increases"},
		{"negative slot", func(p *Platform) { p.Bus.SlotLen = -1 }, "negative bus slot"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := twoNodePlatform()
			c.mutate(p)
			err := p.Validate(2)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("want error containing %q, got %v", c.want, err)
			}
		})
	}
}

func TestNodeVersionLookup(t *testing.T) {
	p := twoNodePlatform()
	n := &p.Nodes[0]
	if v := n.Version(2); v == nil || v.Cost != 32 {
		t.Errorf("Version(2) = %+v", v)
	}
	if v := n.Version(9); v != nil {
		t.Errorf("Version(9) = %+v, want nil", v)
	}
	if n.MinLevel() != 1 || n.MaxLevel() != 2 {
		t.Errorf("levels = %d..%d", n.MinLevel(), n.MaxLevel())
	}
}

// TestNodeVersionIndexed pins Version's indexed lookup to the linear scan
// it replaced on a dense node, a node whose levels start at 2, a
// hand-built node with gaps and out of order, and a node with no
// versions, over levels inside and outside each node's range.
func TestNodeVersionIndexed(t *testing.T) {
	scan := func(n *Node, level int) *HVersion {
		for i := range n.Versions {
			if n.Versions[i].Level == level {
				return &n.Versions[i]
			}
		}
		return nil
	}
	nodes := map[string]*Node{
		"dense":  {Versions: []HVersion{{Level: 1}, {Level: 2}, {Level: 3}}},
		"offset": {Versions: []HVersion{{Level: 2}, {Level: 3}, {Level: 4}}},
		"sparse": {Versions: []HVersion{{Level: 3}, {Level: 1}, {Level: 5}, {Level: 4}}},
		"empty":  {},
	}
	for name, n := range nodes {
		for level := -1; level <= 7; level++ {
			if got, want := n.Version(level), scan(n, level); got != want {
				t.Errorf("%s: Version(%d) = %p, want %p", name, level, got, want)
			}
		}
	}
	if nodes["offset"].Version(4) != &nodes["offset"].Versions[2] || nodes["offset"].Version(1) != nil {
		t.Error("offset node: level 4 not at index 2, or level 1 found")
	}
}

func TestNodeSpeed(t *testing.T) {
	p := twoNodePlatform()
	// N2 is faster (mean WCET 50 vs 67.5).
	if !(p.Nodes[1].Speed() > p.Nodes[0].Speed()) {
		t.Errorf("N2 should be faster: %v vs %v", p.Nodes[1].Speed(), p.Nodes[0].Speed())
	}
	empty := Node{Versions: []HVersion{{Level: 1, Cost: 1}}}
	if empty.Speed() != 0 {
		t.Errorf("empty node speed = %v, want 0", empty.Speed())
	}
}

func TestArchitectureCostAndLevels(t *testing.T) {
	p := twoNodePlatform()
	ar := NewArchitecture([]*Node{&p.Nodes[0], &p.Nodes[1]})
	if ar.Cost() != 36 {
		t.Errorf("min cost = %v, want 36", ar.Cost())
	}
	ar.SetMaxHardening()
	if ar.Cost() != 72 {
		t.Errorf("max cost = %v, want 72", ar.Cost())
	}
	if ar.MinCost() != 36 {
		t.Errorf("MinCost = %v, want 36", ar.MinCost())
	}
	if ar.CanRaise(0) {
		t.Error("at max level, CanRaise should be false")
	}
	if !ar.CanLower(0) {
		t.Error("at max level, CanLower should be true")
	}
	ar.SetMinHardening()
	if !ar.CanRaise(0) || ar.CanLower(0) {
		t.Error("at min level, CanRaise true / CanLower false expected")
	}
	if got := ar.String(); !strings.Contains(got, "N1^1") || !strings.Contains(got, "cost=36") {
		t.Errorf("String = %q", got)
	}
}

func TestArchitectureClone(t *testing.T) {
	p := twoNodePlatform()
	ar := NewArchitecture([]*Node{&p.Nodes[0], &p.Nodes[1]})
	cp := ar.Clone()
	cp.Levels[0] = 2
	if ar.Levels[0] != 1 {
		t.Error("Clone shares Levels storage")
	}
	if cp.Nodes[0] != ar.Nodes[0] {
		t.Error("Clone should share node pointers")
	}
}

func TestEnumeratorOrder(t *testing.T) {
	p := twoNodePlatform()
	e := NewEnumerator(p)
	if e.MaxNodes() != 2 {
		t.Fatalf("MaxNodes = %d", e.MaxNodes())
	}
	// Size-1 architectures: fastest (N2) first.
	if e.Count(1) != 2 {
		t.Fatalf("Count(1) = %d", e.Count(1))
	}
	first := e.Arch(1, 0)
	if first.Nodes[0].Name != "N2" {
		t.Errorf("fastest 1-node arch = %s, want N2", first.Nodes[0].Name)
	}
	second := e.Arch(1, 1)
	if second.Nodes[0].Name != "N1" {
		t.Errorf("second 1-node arch = %s, want N1", second.Nodes[0].Name)
	}
	if e.Arch(1, 2) != nil {
		t.Error("out-of-range Arch should be nil")
	}
	if e.Count(2) != 1 || e.Arch(2, 0) == nil {
		t.Error("one 2-node architecture expected")
	}
	if e.Arch(3, 0) != nil || e.Arch(0, 0) != nil {
		t.Error("invalid sizes should yield nil")
	}
	// Architectures come out at minimum hardening.
	if lv := e.Arch(2, 0).Levels; lv[0] != 1 || lv[1] != 1 {
		t.Errorf("levels = %v, want min", lv)
	}
}

func TestBusSpec(t *testing.T) {
	b := BusSpec{SlotLen: 5, MaxMsgBytes: 16}
	e := appmodel.Edge{Size: 8}
	if b.TransmissionTime(e) != 5 {
		t.Errorf("TransmissionTime = %v", b.TransmissionTime(e))
	}
	if !b.MessageFits(e) {
		t.Error("8-byte message should fit in 16-byte slot")
	}
	if b.MessageFits(appmodel.Edge{Size: 32}) {
		t.Error("32-byte message should not fit")
	}
	if !(BusSpec{SlotLen: 5}).MessageFits(appmodel.Edge{Size: 1 << 20}) {
		t.Error("unlimited slot should fit anything")
	}
}
