package jobs

import (
	"encoding/json"
	"testing"
	"time"
)

// TestSpecFingerprintPinned pins the content address of one figure spec
// and one design spec. A job's id is its spec's fingerprint, and ftesd
// binds state.jsonl rows and rows-<id>.jsonl row journals to it, so a
// change to Spec's JSON shape that moves these ids orphans every job a
// running daemon has journaled. Fields added to Spec must stay empty in
// the encoding of a spec that does not set them.
func TestSpecFingerprintPinned(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"figure", Spec{Kind: KindFigure, Fig: "6a", Apps: 4, Procs: []int{20, 40}, Seed: 3,
			Workers: 2, AppTimeout: 5 * time.Second, Markdown: true}, "7de7c3905a895b5f"},
		{"design", Spec{Kind: KindDesign, Design: json.RawMessage(`{"application": {"name": "x"}}`),
			Strategy: "MIN", MaxCost: 40, Slack: "per-process"}, "a597d3a15b825647"},
	}
	for _, tc := range cases {
		got, err := tc.spec.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s spec fingerprint %s, want %s: job ids and row-journal bindings moved", tc.name, got, tc.want)
		}
	}
}
