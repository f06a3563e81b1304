//go:build !race

package evalengine

const raceEnabled = false
