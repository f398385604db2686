package mpisim

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/trace"
)

// snapshotSink deep-copies every event at call time and also hands it to a
// CollectorSink, which keeps the event the way the Sink contract allows:
// a copy of the struct that shares Reqs/ReqSrcs.
type snapshotSink struct {
	trace.CollectorSink
	snaps []trace.Event
}

func (s *snapshotSink) Event(e *trace.Event) {
	c := *e
	c.Reqs = slices.Clone(e.Reqs)
	c.ReqSrcs = slices.Clone(e.ReqSrcs)
	s.snaps = append(s.snaps, c)
	s.CollectorSink.Event(e)
}

// TestSinkContractKeptEventsStayIntact checks the trace.Sink.Event contract
// from the runtime's side: the event struct is reused, but the Reqs/ReqSrcs
// lists a sink keeps are never overwritten by later events and never shared
// between events.
func TestSinkContractKeptEventsStayIntact(t *testing.T) {
	const n = 2
	sinks := make([]trace.Sink, n)
	snaps := make([]*snapshotSink, n)
	for i := range sinks {
		snaps[i] = &snapshotSink{}
		sinks[i] = snaps[i]
	}
	_, err := Run(n, DefaultParams(), sinks, func(r *Rank) {
		peer := 1 - r.ID()
		r.Init()
		for it := 0; it < 3; it++ {
			req := r.Irecv(peer, 8, 0)
			r.Send(peer, 8, 0)
			r.Wait(req)
			r.Isend(peer, 16, 1)
			r.Irecv(trace.AnySource, 16, 1)
			r.Irecv(peer, 16, 2)
			r.Isend(peer, 16, 2)
			r.Waitall()
			r.Irecv(peer, 32, 3)
			r.Isend(peer, 32, 3)
			r.Irecv(peer, 32, 4)
			r.Isend(peer, 32, 4)
			for r.PendingCount() > 0 {
				if r.Testany() == 0 {
					r.Waitsome()
				}
			}
			r.Testany()
			r.Barrier()
		}
		r.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank, s := range snaps {
		if !reflect.DeepEqual(s.Events, s.snaps) {
			t.Fatalf("rank %d: kept events differ from their call-time copies", rank)
		}
		owner := map[*int32]int{}
		completions := 0
		for i, e := range s.Events {
			if e.Op.IsCompletion() && len(e.Reqs) > 0 {
				completions++
			}
			for _, list := range [][]int32{e.Reqs, e.ReqSrcs} {
				if len(list) == 0 {
					continue
				}
				if j, shared := owner[&list[0]]; shared {
					t.Fatalf("rank %d: events %d and %d share a request list", rank, j, i)
				}
				owner[&list[0]] = i
			}
		}
		if completions < 9 {
			t.Fatalf("rank %d: only %d completions with requests", rank, completions)
		}
	}
}
