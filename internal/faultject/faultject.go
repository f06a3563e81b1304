// Package faultject is a test-only failpoint registry for injecting
// storage faults — ENOSPC, short writes, torn renames, and mid-write
// SIGKILL — at named points in the persistence layer (runstate journal
// appends, evaluation-cache saves).
//
// Failpoints are disarmed by default and the disarmed fast path is a
// single atomic load, so production code can consult them unconditionally.
// Arm points either programmatically (Arm, from tests) or through the
// FTES_FAULTS environment variable (from chaos harnesses that drive real
// subprocesses):
//
//	FTES_FAULTS="runstate.append=kill:every=7"
//
// Each clause is point=kind with an optional :key=value trigger:
//
//	after=N  fire on the Nth hit of the point (once)
//	every=N  fire on every Nth hit
//
// With no trigger the rule fires on every hit. Triggers are hit counters,
// so a chaos run replays identically.
package faultject

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Fault kinds understood by the hook sites.
const (
	KindENOSPC     = "enospc" // the write fails with syscall.ENOSPC
	KindShortWrite = "short"  // half the bytes land, then io.ErrShortWrite
	KindTornRename = "torn"   // the rename publishes truncated content
	KindKill       = "kill"   // half the bytes land, then SIGKILL self
)

// Fault describes one injected fault at a hook site.
type Fault struct {
	Point string
	Kind  string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("faultject: injected %s at %s", f.Kind, f.Point)
}

type rule struct {
	kind  string
	after int // fire once on the Nth hit (1-based)
	every int // fire on every Nth hit

	hits int
}

var (
	armed atomic.Bool
	mu    sync.Mutex
	rules map[string]*rule
)

func init() {
	if spec := os.Getenv("FTES_FAULTS"); spec != "" {
		if err := Arm(spec); err != nil {
			fmt.Fprintf(os.Stderr, "faultject: ignoring FTES_FAULTS: %v\n", err)
		}
	}
}

// Enabled reports whether any failpoint is armed. The disarmed path is a
// single atomic load.
func Enabled() bool { return armed.Load() }

// Arm parses a failpoint spec (see package doc) and arms its points,
// replacing any rule already armed at the same point.
func Arm(spec string) error {
	mu.Lock()
	defer mu.Unlock()
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		point, rest, ok := strings.Cut(clause, "=")
		if !ok || point == "" {
			return fmt.Errorf("faultject: clause %q is not point=kind", clause)
		}
		parts := strings.Split(rest, ":")
		r := &rule{kind: parts[0]}
		switch r.kind {
		case KindENOSPC, KindShortWrite, KindTornRename, KindKill:
		default:
			return fmt.Errorf("faultject: unknown fault kind %q at %s", r.kind, point)
		}
		for _, opt := range parts[1:] {
			k, v, ok := strings.Cut(opt, "=")
			if !ok {
				return fmt.Errorf("faultject: option %q at %s is not key=value", opt, point)
			}
			switch k {
			case "after":
				n, err := strconv.Atoi(v)
				if err != nil || n < 1 {
					return fmt.Errorf("faultject: bad after=%q at %s", v, point)
				}
				r.after = n
			case "every":
				n, err := strconv.Atoi(v)
				if err != nil || n < 1 {
					return fmt.Errorf("faultject: bad every=%q at %s", v, point)
				}
				r.every = n
			default:
				return fmt.Errorf("faultject: unknown option %q at %s", k, point)
			}
		}
		if rules == nil {
			rules = make(map[string]*rule)
		}
		rules[point] = r
	}
	armed.Store(len(rules) > 0)
	return nil
}

// Reset disarms every failpoint and clears all hit counters.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	rules = nil
	armed.Store(false)
}

// Fire consults the failpoint named point and returns the fault to
// inject, or nil when the point is disarmed or its trigger does not
// match this hit. Callers should gate on Enabled() first to keep the
// common path allocation- and lock-free.
func Fire(point string) *Fault {
	if !armed.Load() {
		return nil
	}
	mu.Lock()
	defer mu.Unlock()
	r, ok := rules[point]
	if !ok {
		return nil
	}
	r.hits++
	fire := true
	switch {
	case r.after > 0:
		fire = r.hits == r.after
	case r.every > 0:
		fire = r.hits%r.every == 0
	}
	if !fire {
		return nil
	}
	return &Fault{Point: point, Kind: r.kind}
}
