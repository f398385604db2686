package interp

import (
	"fmt"
	"testing"

	"repro/internal/lang"
	"repro/internal/mpisim"
)

// allocLoopSrc is loop- and call-heavy: nested blocks with declarations,
// user calls with arguments, recursion, point-to-point and collective
// intrinsics, on one rank.
const allocLoopSrc = `
func main() {
	var acc = 0;
	for var i = 0; i < %d; i = i + 1 {
		var x = step(i, acc);
		{ var y = x %% 7; acc = acc + y; }
		if i %% 3 == 0 { send(0, 8, 1); recv(0, 8, 1); } else { allreduce(8); }
		compute(min(x, 5));
		acc = acc + depth(3);
	}
}
func step(a, b) { return a + b %% 11; }
func depth(n) {
	if n == 0 { return 0; }
	return 1 + depth(n - 1);
}`

// TestExecuteAllocsFlatInIterations checks that executing a program under
// the discarding sink allocates per run, never per statement or call: a
// thousand iterations cost what ten do.
func TestExecuteAllocsFlatInIterations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	measure := func(iters int) float64 {
		prog, err := lang.Parse(fmt.Sprintf(allocLoopSrc, iters))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lang.Check(prog); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := mpisim.Run(1, mpisim.Params{}, nil, func(r *mpisim.Rank) { Execute(prog, r) }); err != nil {
				t.Fatal(err)
			}
		})
	}
	lo, hi := measure(10), measure(1000)
	// The slack covers the runtime's deadlock watchdog, whose timer ticks
	// allocate with wall time, not with work.
	if hi > lo+2 {
		t.Fatalf("allocations grow with iterations: %.1f per run at 10, %.1f at 1000", lo, hi)
	}
	t.Logf("allocs per run: %.1f at 10 iterations, %.1f at 1000", lo, hi)
}
