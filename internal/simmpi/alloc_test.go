package simmpi

import (
	"testing"

	"repro/internal/mpisim"
)

// TestSimulateAllocsSteadyState pins the engine's allocation shape: all
// allocation happens at setup (ranks, match tables) or scales with peak
// state (match-queue capacity, collective groups), and the steady-state
// sweep loop allocates nothing. The fixture is the chain halo exchange: its
// per-iteration waitall keeps neighbor drift — and with it match-queue
// depth — bounded by a constant, so more iterations must leave allocs/run
// essentially unchanged.
func TestSimulateAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	params := mpisim.DefaultParams()
	measure := func(iters int) float64 {
		seqs := chainTrace(64, iters)
		return testing.AllocsPerRun(5, func() {
			if _, err := Simulate(seqs, params); err != nil {
				t.Fatal(err)
			}
		})
	}
	// 80 iterations is past the warm-up knee (queue buffers and scratch at
	// full capacity); from there, 4x more work may only move the count by
	// the measurement floor (a few GC-cycle allocations), and the absolute
	// ceiling rules out even 0.05 allocs/event across the run's ~100k events.
	warm := measure(80)
	long := measure(320)
	if long > warm+64 {
		t.Errorf("4x work moved allocs/run from %.0f to %.0f; sweep loop is allocating", warm, long)
	}
	if long > 2048 {
		t.Errorf("allocs/run %.0f exceeds budget 2048", long)
	}
}
