//go:build race

package evalengine

// raceEnabled reports whether the race detector is on; its
// instrumentation adds allocations that allocation counts must not see.
const raceEnabled = true
