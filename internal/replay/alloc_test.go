package replay

import (
	"fmt"
	"testing"

	"repro/internal/trace"
)

// walkSrc is a halo exchange with alternating branches and a nested loop:
// every vertex kind the walker keeps state for (record cursors, loop
// activations, branch reach counts) is visited on every iteration.
const walkSrc = `
func main() {
	for var k = 0; k < %d; k = k + 1 {
		if k %% 2 == 0 { allreduce(8); } else { barrier(); }
		for var j = 0; j < 3; j = j + 1 {
			var r1 = isend((rank + 1) %% size, 64, j);
			var r2 = irecv((rank + size - 1) %% size, 64, j);
			waitall();
		}
	}
}`

// TestWalkAllocsIndependentOfEvents pins the walker's allocation shape: a
// walk's state is a few slices indexed by vertex GID, allocated once, so the
// allocation count of Events — and of BuildSkeleton, which copies its steps
// out at their exact length — does not grow with the events walked.
func TestWalkAllocsIndependentOfEvents(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	emit := func(*trace.Event) {}
	measure := func(iters int) (walk, skel float64) {
		_, ctts := compress(t, fmt.Sprintf(walkSrc, iters), 4)
		src := RankSource{ctts[1]}
		walk = testing.AllocsPerRun(20, func() {
			if err := Events(src, 1, emit); err != nil {
				t.Fatal(err)
			}
		})
		skel = testing.AllocsPerRun(20, func() {
			if _, err := BuildSkeleton(src, 1, nil); err != nil {
				t.Fatal(err)
			}
		})
		return walk, skel
	}
	walkSmall, skelSmall := measure(10)
	walkBig, skelBig := measure(400)
	t.Logf("allocs/walk %.0f, allocs/skeleton %.0f", walkBig, skelBig)
	if walkBig != walkSmall || skelBig != skelSmall {
		t.Errorf("40x the events moved allocs/walk from %.0f to %.0f and allocs/skeleton from %.0f to %.0f",
			walkSmall, walkBig, skelSmall, skelBig)
	}
	if walkBig > 8 || skelBig > 12 {
		t.Errorf("allocs/walk %.0f (budget 8), allocs/skeleton %.0f (budget 12)", walkBig, skelBig)
	}
}
