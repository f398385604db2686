package simmpi

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/mpisim"
	"repro/internal/trace"
)

// ringTrace builds n synthetic rank sequences for a blocking wraparound ring:
// every iteration sends to the right neighbor and receives from the left,
// with rank-varying compute and sizes, an allreduce every fourth iteration,
// and a closing finalize. Every receive has a matching send, so the trace
// simulates cleanly.
func ringTrace(n, iters int) [][]trace.Event {
	seqs := make([][]trace.Event, n)
	for r := 0; r < n; r++ {
		evs := []trace.Event{{Op: trace.OpInit, Peer: trace.NoPeer, ComputeNS: 50 + float64(r%7)*10}}
		for k := 0; k < iters; k++ {
			tag := k % 2
			size := 1024 + 512*(k%3)
			evs = append(evs,
				trace.Event{Op: trace.OpSend, Peer: (r + 1) % n, Tag: tag, Size: size,
					ComputeNS: float64(40 + (r*13)%90)},
				trace.Event{Op: trace.OpRecv, Peer: (r + n - 1) % n, Tag: tag, Size: size,
					ComputeNS: float64(20 + (k*7)%30)})
			if k%4 == 3 {
				evs = append(evs, trace.Event{Op: trace.OpAllreduce, Peer: trace.NoPeer, Size: 8,
					ComputeNS: 30})
			}
		}
		evs = append(evs, trace.Event{Op: trace.OpFinalize, Peer: trace.NoPeer})
		seqs[r] = evs
	}
	return seqs
}

// chainTrace builds an open-chain non-blocking halo exchange (the jacobi
// shape): each iteration posts isends and irecvs toward both neighbors and
// completes them with one waitall whose Reqs reference the poster GIDs.
func chainTrace(n, iters int) [][]trace.Event {
	const (
		gidSendL int32 = 100
		gidSendR int32 = 101
		gidRecvL int32 = 102
		gidRecvR int32 = 103
	)
	seqs := make([][]trace.Event, n)
	for r := 0; r < n; r++ {
		evs := []trace.Event{{Op: trace.OpInit, Peer: trace.NoPeer, ComputeNS: 25}}
		for k := 0; k < iters; k++ {
			var reqs []int32
			if r > 0 {
				evs = append(evs, trace.Event{Op: trace.OpIsend, Peer: r - 1, Tag: 1, Size: 2048,
					GID: gidSendL, ComputeNS: float64(30 + (r*11)%60)})
				reqs = append(reqs, gidSendL)
			}
			if r < n-1 {
				evs = append(evs, trace.Event{Op: trace.OpIsend, Peer: r + 1, Tag: 2, Size: 2048,
					GID: gidSendR, ComputeNS: 15})
				reqs = append(reqs, gidSendR)
			}
			if r > 0 {
				evs = append(evs, trace.Event{Op: trace.OpIrecv, Peer: r - 1, Tag: 2, Size: 2048,
					GID: gidRecvL, ComputeNS: 5})
				reqs = append(reqs, gidRecvL)
			}
			if r < n-1 {
				evs = append(evs, trace.Event{Op: trace.OpIrecv, Peer: r + 1, Tag: 1, Size: 2048,
					GID: gidRecvR, ComputeNS: 5})
				reqs = append(reqs, gidRecvR)
			}
			evs = append(evs, trace.Event{Op: trace.OpWaitall, Peer: trace.NoPeer, Reqs: reqs,
				ComputeNS: float64(10 + (k*3)%40)})
		}
		evs = append(evs, trace.Event{Op: trace.OpFinalize, Peer: trace.NoPeer})
		seqs[r] = evs
	}
	return seqs
}

// shiftTrace builds a ring whose partner distance shifts every iteration
// (1, 2, 3, 1, ...), with a barrier midway — deeper match-table fan-out than
// the plain ring, still send-before-recv so it cannot deadlock.
func shiftTrace(n, iters int) [][]trace.Event {
	seqs := make([][]trace.Event, n)
	for r := 0; r < n; r++ {
		evs := []trace.Event{{Op: trace.OpInit, Peer: trace.NoPeer}}
		for k := 0; k < iters; k++ {
			s := 1 + k%3
			evs = append(evs,
				trace.Event{Op: trace.OpSend, Peer: (r + s) % n, Tag: 3, Size: 256 * (1 + k%4),
					ComputeNS: float64(60 + (r*29)%120)},
				trace.Event{Op: trace.OpRecv, Peer: (r + n - s) % n, Tag: 3, Size: 256 * (1 + k%4),
					ComputeNS: 10})
			if k == iters/2 {
				evs = append(evs, trace.Event{Op: trace.OpBarrier, Peer: trace.NoPeer})
			}
		}
		evs = append(evs, trace.Event{Op: trace.OpFinalize, Peer: trace.NoPeer})
		seqs[r] = evs
	}
	return seqs
}

var fixtures = []struct {
	name string
	gen  func(n, iters int) [][]trace.Event
}{
	{"ring", ringTrace},
	{"chain", chainTrace},
	{"shift", shiftTrace},
}

// TestParallelEquivalence pins that simulations share no state: on every
// fixture at 7/64/256/1024 ranks, simulations of one trace run at the same
// time from several goroutines, each streaming through buffer-reusing
// sources, must all return the bit-identical Result (per-rank finish times
// included) of a lone materialized Simulate. The engine takes no locks, so
// under -race this is also the check that runs touch no shared mutable state.
func TestParallelEquivalence(t *testing.T) {
	params := mpisim.DefaultParams()
	const callers = 4
	for _, n := range []int{7, 64, 256, 1024} {
		iters := 12
		if n >= 1024 {
			iters = 6
		}
		for _, fx := range fixtures {
			t.Run(fmt.Sprintf("%s/n%d", fx.name, n), func(t *testing.T) {
				seqs := fx.gen(n, iters)
				want, err := Simulate(seqs, params)
				if err != nil {
					t.Fatalf("Simulate: %v", err)
				}
				got := make([]Result, callers)
				errs := make([]error, callers)
				var wg sync.WaitGroup
				for c := range got {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						got[c], errs[c] = SimulateStream(reusingSources(seqs), params)
					}(c)
				}
				wg.Wait()
				for c := range got {
					if errs[c] != nil {
						t.Fatalf("caller %d: %v", c, errs[c])
					}
					if !reflect.DeepEqual(want, got[c]) {
						t.Fatalf("caller %d: result differs from a lone run\nwant total %v\ngot total  %v",
							c, want.TotalNS, got[c].TotalNS)
					}
				}
			})
		}
	}
}

// TestSimulateZeroCostModel pins the degenerate cost model (o = L = G = 0,
// mpisim.Params{}): messages and collectives cost nothing, so a receive
// completes exactly at its sender's send time, and the ring fixture
// simulates without a stall to a prediction no larger than under the
// default cost model.
func TestSimulateZeroCostModel(t *testing.T) {
	pair := [][]trace.Event{
		{{Op: trace.OpSend, Peer: 1, Size: 4096, ComputeNS: 100}},
		{{Op: trace.OpRecv, Peer: 0, Size: 4096, ComputeNS: 10}},
	}
	res, err := Simulate(pair, mpisim.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerRankNS[0] != 100 || res.PerRankNS[1] != 100 || res.CommNS[1] != 90 {
		t.Fatalf("zero-cost exchange: clocks %v comm %v, want [100 100] with 90 ns waiting on rank 1",
			res.PerRankNS, res.CommNS)
	}

	seqs := ringTrace(16, 8)
	zero, err := Simulate(seqs, mpisim.Params{})
	if err != nil {
		t.Fatalf("zero-cost ring: %v", err)
	}
	def, err := Simulate(seqs, mpisim.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for r := range zero.PerRankNS {
		if zero.PerRankNS[r] < zero.ComputeNS[r] {
			t.Fatalf("rank %d: clock %v below its compute %v", r, zero.PerRankNS[r], zero.ComputeNS[r])
		}
	}
	if zero.TotalNS > def.TotalNS {
		t.Fatalf("zero-cost prediction %v exceeds default-cost prediction %v", zero.TotalNS, def.TotalNS)
	}
}
