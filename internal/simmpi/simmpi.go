// Package simmpi is a trace-driven LogGP performance simulator, the stand-in
// for SIM-MPI in the paper's Section V / Figure 14 pipeline: decompressed
// CYPRESS traces (communication sequence + per-record sequential computation
// time) plus network parameters yield a predicted execution time.
//
// The simulator is a sequential discrete-event engine driven by a ready list:
// each rank advances a local clock through its event sequence until it
// blocks, and a blocked rank is revisited only when a send reaches its match
// table or its collective group completes, so the run costs time linear in
// its events plus wake-ups. An empty list with a rank still live is a stall.
// Point-to-point completions couple to the matching sender's injection time
// plus latency through per-destination match tables keyed by (source, tag),
// and collectives synchronize all ranks with the binomial-tree cost model
// shared with the mpisim runtime. Simulate and SimulateStream share the
// engine, so materialized and streamed sequences predict identically. See
// DESIGN.md "LogGP simulation".
package simmpi

import (
	"fmt"
	"math"

	"repro/internal/mpisim"
	"repro/internal/obs"
	ftrace "repro/internal/obs/trace"
	"repro/internal/trace"
)

// Result is the simulation outcome.
type Result struct {
	// TotalNS is the predicted job execution time (max over ranks).
	TotalNS float64
	// PerRankNS is each rank's final clock.
	PerRankNS []float64
	// CommNS is each rank's accumulated communication time.
	CommNS []float64
	// ComputeNS is each rank's accumulated computation time.
	ComputeNS []float64
}

// CommFraction returns the job-wide communication time share.
func (r Result) CommFraction() float64 {
	var comm, tot float64
	for i := range r.PerRankNS {
		comm += r.CommNS[i]
		tot += r.PerRankNS[i]
	}
	if tot == 0 {
		return 0
	}
	return comm / tot
}

type pendingRecv struct {
	gid int32
	key uint64 // match key of the posted receive (see matchKey)
}

type simRank struct {
	src     EventSource
	cur     trace.Event
	have    bool // cur holds a blocked, unprocessed event
	started bool // src yielded at least one event
	done    bool // src exhausted after at least one event
	queued  bool // on the engine's ready list
	idx     int  // events processed (for diagnostics)
	clock   float64
	comm    float64
	compute float64
	pending []pendingRecv
	collIdx int
	inColl  bool

	// Completion scratch, reused across events so the steady-state loop is
	// allocation-free once warm (the historical engine built two maps per
	// completion op).
	toComplete []int
	used       []bool
	queues     []*msgQueue
	avails     []float64
}

type collGroup struct {
	op      trace.Op
	size    int
	arrived int
	maxT    float64
	done    bool
	finish  float64
}

// EventSource is a pull iterator over one rank's replayed event sequence, the
// streaming alternative to materializing a full []trace.Event per rank. The
// pointer returned by Next is only read before the following Next call, so
// implementations may reuse one event buffer (replay.Cursor does).
type EventSource interface {
	// Next returns the next event, or false when the sequence is exhausted.
	Next() (*trace.Event, bool)
}

// sliceSource adapts a materialized sequence to EventSource.
type sliceSource struct {
	evs []trace.Event
	i   int
}

func (s *sliceSource) Next() (*trace.Event, bool) {
	if s.i >= len(s.evs) {
		return nil, false
	}
	e := &s.evs[s.i]
	s.i++
	return e, true
}

// Simulate predicts execution for the given per-rank event sequences. It is
// SimulateStream over materialized slices; both entry points share one
// engine, so their results are identical for identical sequences.
func Simulate(seqs [][]trace.Event, params mpisim.Params) (Result, error) {
	srcs := make([]EventSource, len(seqs))
	for i := range seqs {
		srcs[i] = &sliceSource{evs: seqs[i]}
	}
	return SimulateStream(srcs, params)
}

// SimulateStream predicts execution for per-rank event streams pulled from
// iterators. Peak memory is O(ranks) cursor state plus the engine's in-flight
// message queues instead of O(total events): each rank's events are consumed
// as they are pulled, one at a time. The event an iterator yields is held by
// value across blocked retries, so sources may reuse their buffers.
func SimulateStream(srcs []EventSource, params mpisim.Params) (Result, error) {
	sp := sink.Start(obs.StageSimulate)
	defer sp.End()
	if len(srcs) == 0 {
		return Result{}, fmt.Errorf("simmpi: no ranks")
	}
	en := newEngine(srcs, params)
	if err := en.run(); err != nil {
		return Result{}, err
	}
	return en.result(), nil
}

// engine is the simulation state of one run: every rank's cursor and
// clocks, one match table per destination rank, the collective groups, and
// the ready list of ranks that may be able to progress.
type engine struct {
	params mpisim.Params
	n      int
	ranks  []simRank
	tables []matchTable
	colls  []collGroup

	// ready holds the ranks queued for the current scheduling round, next
	// those woken during it. A rank stays marked queued while it is being
	// advanced, so its own sends never wake it.
	ready, next []int32
	live        int // ranks whose source is not yet drained

	// Scheduling tallies for the engine's own tests: wake-ups (initial
	// queueing included) and step attempts.
	wakes, attempts int64
}

func newEngine(srcs []EventSource, params mpisim.Params) *engine {
	en := &engine{params: params, n: len(srcs), live: len(srcs)}
	en.ranks = make([]simRank, en.n)
	en.next = make([]int32, 0, en.n)
	en.ready = make([]int32, 0, en.n)
	for i := range en.ranks {
		en.ranks[i].src = srcs[i]
		en.wake(i)
	}
	en.tables = make([]matchTable, en.n)
	for i := range en.tables {
		en.tables[i].q = map[uint64]*msgQueue{}
	}
	return en
}

// wake queues rank rid for the next scheduling round unless it is already
// queued (or being advanced) or drained.
func (en *engine) wake(rid int) {
	r := &en.ranks[rid]
	if r.queued || r.done {
		return
	}
	r.queued = true
	en.next = append(en.next, int32(rid))
	en.wakes++
}

// run advances ranks off the ready list until every source is drained or
// the list empties while a rank is still live (a stall). A blocked rank
// leaves the list and returns only when something it may be waiting on
// happens: a send pushes into its match table, or its collective group
// completes. Clocks depend only on per-(source, tag) FIFO order and group
// maxima, never on the order ranks are visited, so the result is identical
// to any other schedule's. Each round drains the list as it stood when the
// round started and is reported as one window (obs.SimWindows, one "window"
// span on the sim track); visits that make no progress — spurious wake-ups
// — count as obs.SimBarrierStalls.
func (en *engine) run() error {
	for len(en.next) > 0 {
		en.ready, en.next = en.next, en.ready[:0]
		wsp := rec.Begin(ftrace.CatSim, ftrace.NameWindow, 0)
		progressed, stalls := 0, 0
		for _, rid := range en.ready {
			p, err := en.advance(int(rid))
			en.ranks[rid].queued = false
			if err != nil {
				return err
			}
			progressed += p
			if p == 0 {
				stalls++
			}
		}
		wsp.End(int64(len(en.ready)), int64(progressed))
		if sink.Enabled() {
			sink.Inc(obs.SimWindows)
			sink.Observe(obs.HistSimWindowEvents, int64(progressed))
			sink.Add(obs.SimBarrierStalls, int64(stalls))
		}
	}
	if en.live > 0 {
		return fmt.Errorf("simmpi: simulation stalled (mismatched trace?): %s", stallState(en.ranks))
	}
	return nil
}

// advance drains rank rid: it processes events until the rank blocks or its
// source is exhausted, and returns the number of events processed.
func (en *engine) advance(rid int) (int, error) {
	r := &en.ranks[rid]
	processed := 0
	for {
		// Events are processed straight off the source's pointer and copied
		// into r.cur only when they block: the common case (event processes
		// first try) never pays the struct copy.
		var e *trace.Event
		if r.have {
			e = &r.cur
		} else {
			if r.done {
				break
			}
			ev, more := r.src.Next()
			if !more {
				if r.started {
					r.done = true
					en.live--
				}
				// else: source empty from the start — mirror the historical
				// engine, which never marked zero-event ranks done and
				// reported a stall instead.
				break
			}
			r.started = true
			e = ev
		}
		en.attempts++
		ok, err := en.step(r, rid, e)
		if err != nil {
			return processed, err
		}
		if !ok {
			if !r.have {
				r.cur = *e
				r.have = true
				sink.Inc(obs.SimBlockedCopies)
			}
			break
		}
		r.have = false
		r.idx++
		processed++
	}
	return processed, nil
}

// result assembles the Result from the final per-rank state.
func (en *engine) result() Result {
	res := Result{
		PerRankNS: make([]float64, en.n),
		CommNS:    make([]float64, en.n),
		ComputeNS: make([]float64, en.n),
	}
	var processed int64
	for i := range en.ranks {
		res.PerRankNS[i] = en.ranks[i].clock
		res.CommNS[i] = en.ranks[i].comm
		res.ComputeNS[i] = en.ranks[i].compute
		res.TotalNS = math.Max(res.TotalNS, en.ranks[i].clock)
		processed += int64(en.ranks[i].idx)
	}
	sink.Add(obs.SimEventsProcessed, processed)
	return res
}

func stallState(ranks []simRank) string {
	for i := range ranks {
		if ranks[i].have {
			return fmt.Sprintf("rank %d stuck at event %d (%v)", i, ranks[i].idx, ranks[i].cur.Op)
		}
	}
	return "all done"
}

// completeRecvs checks that every receive in r.toComplete has a queued
// message in rid's match table, and if so pops them all in completion order
// into r.avails.
func (en *engine) completeRecvs(rid int, r *simRank) bool {
	tb := &en.tables[rid]
	// Entry i needs the queue for its key to hold every earlier same-key
	// completion plus itself. Pending lists are short, so the quadratic scan
	// beats the historical per-event count map.
	r.queues = r.queues[:0]
	for i, pi := range r.toComplete {
		key := r.pending[pi].key
		need := 1
		for _, pj := range r.toComplete[:i] {
			if r.pending[pj].key == key {
				need++
			}
		}
		q := tb.q[key]
		if q == nil || q.len() < need {
			return false
		}
		r.queues = append(r.queues, q)
	}
	r.avails = r.avails[:0]
	for _, q := range r.queues {
		r.avails = append(r.avails, q.pop())
	}
	return true
}

// step attempts to process one event; it returns false when the event must
// wait for progress elsewhere. Every clock/comm/compute update is a function
// of rank-local state plus values read from the rank's own match table or
// collective group (see DESIGN.md "LogGP simulation").
func (en *engine) step(r *simRank, rid int, e *trace.Event) (bool, error) {
	p := en.params
	// Compute time precedes the call.
	advCompute := func() {
		r.clock += e.ComputeNS
		r.compute += e.ComputeNS
	}

	switch e.Op {
	case trace.OpSend, trace.OpIsend, trace.OpRecv, trace.OpIrecv:
		// An out-of-range peer means the trace and the rank count disagree.
		if e.Peer < 0 || e.Peer >= en.n {
			return false, fmt.Errorf("simmpi: rank %d %v at gid %d to peer %d outside [0,%d)",
				rid, e.Op, e.GID, e.Peer, en.n)
		}
		// Match keys pack the tag into 32 bits.
		if e.Tag != int(int32(e.Tag)) {
			return false, fmt.Errorf("simmpi: rank %d %v at gid %d with tag %d outside int32",
				rid, e.Op, e.GID, e.Tag)
		}
	}
	switch {
	case e.Op == trace.OpInit:
		advCompute()
		return true, nil
	case e.Op == trace.OpSend || e.Op == trace.OpIsend:
		// Isend differs only in request bookkeeping; sends complete locally.
		advCompute()
		t0 := r.clock
		r.clock += p.InjectNS(e.Size)
		depth := en.tables[e.Peer].push(matchKey(rid, e.Tag), r.clock+p.LatencyNS)
		en.wake(e.Peer)
		if sink.Enabled() {
			sink.Observe(obs.HistSimQueueDepth, int64(depth))
			sink.SetMax(obs.SimMatchDepthPeak, int64(depth))
		}
		r.comm += r.clock - t0
		return true, nil
	case e.Op == trace.OpIrecv:
		advCompute()
		t0 := r.clock
		r.clock += p.OverheadNS / 2
		r.pending = append(r.pending, pendingRecv{gid: e.GID, key: matchKey(e.Peer, e.Tag)})
		r.comm += r.clock - t0
		return true, nil
	case e.Op == trace.OpRecv:
		avail, ok := en.tables[rid].tryPop(matchKey(e.Peer, e.Tag))
		if !ok {
			return false, nil // matching send not simulated yet
		}
		advCompute()
		t0 := r.clock
		r.clock = math.Max(r.clock+p.OverheadNS, avail)
		r.comm += r.clock - t0
		return true, nil
	case e.Op.IsCompletion():
		// Determine which pending receives complete here, by poster GID.
		r.toComplete = r.toComplete[:0]
		r.used = r.used[:0]
		for range r.pending {
			r.used = append(r.used, false)
		}
		for _, gid := range e.Reqs {
			for i := range r.pending {
				if r.used[i] || r.pending[i].gid != gid {
					continue
				}
				r.toComplete = append(r.toComplete, i)
				r.used[i] = true
				break
			}
			// GIDs without a pending receive are completed sends: no wait.
		}
		// All needed messages must be available before the wait can finish.
		if !en.completeRecvs(rid, r) {
			return false, nil
		}
		advCompute()
		t0 := r.clock
		for _, avail := range r.avails {
			r.clock = math.Max(r.clock, avail)
		}
		r.clock += p.OverheadNS / 2
		// Drop completed receives from pending, preserving order.
		if len(r.toComplete) > 0 {
			kept := r.pending[:0]
			for i := range r.pending {
				if !r.used[i] {
					kept = append(kept, r.pending[i])
				}
			}
			r.pending = kept
		}
		r.comm += r.clock - t0
		return true, nil
	case e.Op.IsCollective() || e.Op == trace.OpFinalize:
		return en.stepColl(r, rid, e)
	default:
		// Anything without timing semantics.
		advCompute()
		return true, nil
	}
}

// stepColl folds one rank's arrival into its next collective group. The
// group's entry time is the max over arrival clocks; the group completes
// when every rank has arrived, and a rank whose op or size disagrees with
// the first arrival's is a collective mismatch.
func (en *engine) stepColl(r *simRank, rid int, e *trace.Event) (bool, error) {
	g := en.coll(r.collIdx)
	if !r.inColl {
		r.clock += e.ComputeNS
		r.compute += e.ComputeNS
		if g.arrived == 0 {
			g.op, g.size = e.Op, e.Size
		} else if g.op != e.Op || g.size != e.Size {
			return false, fmt.Errorf("simmpi: collective mismatch at occurrence %d: rank %d %v(%d) vs %v(%d)",
				r.collIdx, rid, e.Op, e.Size, g.op, g.size)
		}
		g.arrived++
		g.maxT = math.Max(g.maxT, r.clock)
		r.inColl = true
		if g.arrived == en.n {
			g.finish = g.maxT + mpisim.CollectiveCostNS(en.params, en.n, e.Op, e.Size)
			g.done = true
			// Every other rank is blocked in this group: wake them all.
			for i := range en.ranks {
				en.wake(i)
			}
		}
	}
	if !g.done {
		return false, nil
	}
	r.comm += g.finish - r.clock
	r.clock = g.finish
	r.collIdx++
	r.inColl = false
	return true, nil
}

// coll lazily grows the collective table to hold index idx.
func (en *engine) coll(idx int) *collGroup {
	for len(en.colls) <= idx {
		en.colls = append(en.colls, collGroup{})
	}
	return &en.colls[idx]
}
