//go:build race

package rforest

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
