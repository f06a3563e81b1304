package faultject

import (
	"fmt"
	"strings"
	"testing"
)

// TestArmGrammar: malformed specs are rejected with an error naming the
// bad clause; valid specs arm.
func TestArmGrammar(t *testing.T) {
	t.Cleanup(Reset)
	bad := []struct{ spec, want string }{
		{"nonsense", "point=kind"},
		{"p=explode", "unknown fault kind"},
		{"runstate.append=vaporize", "unknown fault kind"},
		{"runstate.append=kill:after=0", "bad after"},
		{"runstate.append=kill:every=x", "bad every"},
		{"runstate.append=kill:wat=1", "unknown option"},
		{"runstate.append=kill:times=2", "unknown option"},
		{"runstate.append=kill:after", "key=value"},
	}
	for _, tc := range bad {
		Reset()
		if err := Arm(tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Arm(%q) = %v, want error containing %q", tc.spec, err, tc.want)
		}
	}
	Reset()
	if Enabled() {
		t.Fatal("Enabled after Reset")
	}
	if err := Arm("a.b=enospc; c.d=torn:after=2 ;;"); err != nil {
		t.Fatalf("Arm valid spec: %v", err)
	}
	if !Enabled() {
		t.Error("not Enabled after valid Arm")
	}
}

// TestFireAfter: after=N fires exactly once, on the Nth hit.
func TestFireAfter(t *testing.T) {
	t.Cleanup(Reset)
	Reset()
	if err := Arm("p=enospc:after=3"); err != nil {
		t.Fatal(err)
	}
	var fired []int
	for hit := 1; hit <= 6; hit++ {
		if f := Fire("p"); f != nil {
			fired = append(fired, hit)
			if f.Kind != KindENOSPC || f.Point != "p" {
				t.Errorf("fault = %+v, want enospc at p", f)
			}
		}
	}
	if len(fired) != 1 || fired[0] != 3 {
		t.Errorf("after=3 fired at hits %v, want [3]", fired)
	}
}

// TestFireEveryTimes: every=N fires on every Nth hit.
func TestFireEveryTimes(t *testing.T) {
	t.Cleanup(Reset)
	Reset()
	if err := Arm("p=short:every=2"); err != nil {
		t.Fatal(err)
	}
	var fired []int
	for hit := 1; hit <= 8; hit++ {
		if Fire("p") != nil {
			fired = append(fired, hit)
		}
	}
	if want := []int{2, 4, 6, 8}; fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Errorf("every=2 fired at hits %v, want %v", fired, want)
	}
}

// TestFireDefaultAndUnknownPoint: a rule with no trigger options fires on
// every hit; unarmed points never fire; Reset disarms.
func TestFireDefaultAndUnknownPoint(t *testing.T) {
	t.Cleanup(Reset)
	Reset()
	if err := Arm("p=torn"); err != nil {
		t.Fatal(err)
	}
	for hit := 0; hit < 3; hit++ {
		if Fire("p") == nil {
			t.Fatal("optionless rule should fire every hit")
		}
	}
	if Fire("other.point") != nil {
		t.Error("unarmed point fired")
	}
	Reset()
	if Fire("p") != nil {
		t.Error("fired after Reset")
	}
}
