//go:build !race

package replay

// raceEnabled reports whether the race detector instruments this build.
// Allocation-count assertions are meaningless under -race (the detector
// allocates shadow state), so alloc tests consult this and skip.
const raceEnabled = false
