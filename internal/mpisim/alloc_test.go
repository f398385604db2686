package mpisim

import "testing"

// TestEventPathAllocs bounds the allocations of the MPI calls on one rank:
// Send/Recv allocate nothing, Isend/Irecv only their Request, and a
// completion only its event's own Reqs/ReqSrcs lists.
func TestEventPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cases := []struct {
		name  string
		round func(r *Rank)
		want  float64 // allocations per round
	}{
		{"send recv", func(r *Rank) { r.Send(0, 8, 1); r.Recv(0, 8, 1) }, 0},
		{"collectives", func(r *Rank) { r.Barrier(); r.Allreduce(8); r.Bcast(0, 8) }, 0},
		// Two Requests, the Waitall's Reqs and its ReqSrcs.
		{"isend irecv waitall", func(r *Rank) { r.Isend(0, 8, 2); r.Irecv(0, 8, 2); r.Waitall() }, 4},
		// One Request and the Wait's Reqs; a send needs no ReqSrcs.
		{"isend wait", func(r *Rank) { r.Wait(r.Isend(0, 8, 3)) }, 2},
		// One Request, Reqs and ReqSrcs; Testany with nothing pending
		// allocates nothing.
		{"irecv waitsome testany", func(r *Rank) { r.Irecv(0, 8, 4); r.Send(0, 8, 4); r.Waitsome(); r.Testany() }, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			measure := func(rounds int) float64 {
				return testing.AllocsPerRun(10, func() {
					_, err := Run(1, Params{}, nil, func(r *Rank) {
						r.Init()
						for i := 0; i < rounds; i++ {
							tc.round(r)
						}
						r.Finalize()
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
			const lo, hi = 10, 1010
			perRound := (measure(hi) - measure(lo)) / (hi - lo)
			// The slack covers the deadlock watchdog's timer ticks.
			if perRound > tc.want+0.01 {
				t.Fatalf("%.3f allocations per round, want %.0f", perRound, tc.want)
			}
		})
	}
}
