//go:build !race

package interp

// raceEnabled reports whether the race detector instruments this build. Its
// instrumentation changes allocation counts, so the allocation-count
// assertions skip under -race.
const raceEnabled = false
