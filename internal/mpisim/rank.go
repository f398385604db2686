package mpisim

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/trace"
)

// Rank is the per-process MPI handle passed to the job body.
type Rank struct {
	rt   *Runtime
	id   int
	sink trace.Sink

	nowNS     float64 // synthetic local clock
	computeNS float64 // compute time since the previous MPI event
	seq       uint64  // per-rank op sequence, feeds deterministic noise

	nextReq int32
	pending []*Request
	reaped  []*Request // Waitsome's scratch list of completed requests

	// ev is the event handed to the sink. It is reused for every event; a
	// sink that keeps an event copies it (see trace.Sink.Event).
	ev trace.Event
}

// Request is a non-blocking operation handle.
type Request struct {
	ID       int32
	isSend   bool
	src      int // requested source (possibly trace.AnySource) for receives
	tag      int
	size     int
	done     bool
	matched  int     // resolved source for receives, -1 for sends
	availNS  float64 // completion availability time
	wildcard bool
}

// ID returns the rank id.
func (r *Rank) ID() int { return r.id }

// Size returns the number of ranks in the world communicator.
func (r *Rank) Size() int { return r.rt.n }

// Sink returns the attached tracer (used by the interpreter to emit
// structure markers alongside the runtime's communication events).
func (r *Rank) Sink() trace.Sink { return r.sink }

// NowNS returns the rank's synthetic clock.
func (r *Rank) NowNS() float64 { return r.nowNS }

// Compute advances the local clock by ns of computation.
func (r *Rank) Compute(ns float64) {
	if ns < 0 {
		panic(fmt.Sprintf("mpisim: negative compute time %f", ns))
	}
	r.seq++
	d := ns * r.rt.params.noise(r.id, r.seq)
	r.nowNS += d
	r.computeNS += d
}

func (r *Rank) checkPeer(peer int, wildcardOK bool) {
	if peer == trace.AnySource && wildcardOK {
		return
	}
	if peer < 0 || peer >= r.rt.n {
		panic(fmt.Sprintf("mpisim: rank %d: peer %d out of range [0,%d)", r.id, peer, r.rt.n))
	}
}

// emit finishes the event the caller filled into r.ev: stamps
// compute/duration, resets the compute accumulator, and forwards it to the
// sink.
func (r *Rank) emit(startNS float64) {
	r.ev.DurationNS = r.nowNS - startNS
	r.ev.ComputeNS = r.computeNS
	r.ev.GID = -1
	r.computeNS = 0
	r.sink.Event(&r.ev)
}

// p2pCost is the sender-side cost of injecting a message: the shared LogGP
// injection formula with this rank's deterministic noise applied.
func (r *Rank) p2pCost(size int) float64 {
	p := r.rt.params
	r.seq++
	return p.InjectNS(size) * p.noise(r.id, r.seq)
}

// Send performs a blocking standard-mode send. Sends are eager: the payload
// is buffered at the receiver's mailbox and the call returns after the local
// injection cost, matching small-message MPI behavior.
func (r *Rank) Send(dest, size, tag int) {
	r.checkPeer(dest, false)
	start := r.nowNS
	r.deliver(dest, size, tag)
	r.ev = trace.Event{Op: trace.OpSend, Size: size, Peer: dest, Tag: tag, ReqID: -1}
	r.emit(start)
}

func (r *Rank) deliver(dest, size, tag int) {
	cost := r.p2pCost(size)
	r.nowNS += cost
	avail := r.nowNS + r.rt.params.LatencyNS
	mb := r.rt.boxes[dest]
	mb.mu.Lock()
	mb.msgs = append(mb.msgs, message{src: r.id, tag: tag, size: size, availNS: avail})
	mb.mu.Unlock()
	mb.cond.Broadcast()
	r.rt.noteProgress()
}

// Recv performs a blocking receive; src may be trace.AnySource. It returns
// the matched source rank.
func (r *Rank) Recv(src, size, tag int) int {
	r.checkPeer(src, true)
	start := r.nowNS
	msg := r.match(src, tag, size)
	p := r.rt.params
	r.seq++
	r.nowNS = math.Max(r.nowNS+p.OverheadNS*p.noise(r.id, r.seq), msg.availNS)
	r.ev = trace.Event{Op: trace.OpRecv, Size: size, Peer: msg.src, Tag: tag, ReqID: -1,
		Wildcard: src == trace.AnySource}
	r.emit(start)
	return msg.src
}

// match blocks until a message matching (src, tag, size) is available and
// consumes the first match in arrival order.
func (r *Rank) match(src, tag, size int) message {
	mb := r.rt.boxes[r.id]
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		for i, m := range mb.msgs {
			if (src == trace.AnySource || m.src == src) && m.tag == tag {
				if m.size != size {
					panic(fmt.Sprintf("mpisim: rank %d: size mismatch recv(%d) vs send(%d) from %d tag %d",
						r.id, size, m.size, m.src, tag))
				}
				mb.msgs = append(mb.msgs[:i], mb.msgs[i+1:]...)
				return m
			}
		}
		r.rt.markBlocked(+1)
		mb.cond.Wait()
		r.rt.markBlocked(-1)
		if r.rt.failureErr() != nil {
			panic(errAborted)
		}
	}
}

// Isend posts a non-blocking send and returns its request.
func (r *Rank) Isend(dest, size, tag int) *Request {
	r.checkPeer(dest, false)
	start := r.nowNS
	r.deliver(dest, size, tag)
	req := &Request{ID: r.nextReq, isSend: true, tag: tag, size: size,
		done: true, matched: -1, availNS: r.nowNS}
	r.nextReq++
	r.pending = append(r.pending, req)
	r.ev = trace.Event{Op: trace.OpIsend, Size: size, Peer: dest, Tag: tag, ReqID: req.ID}
	r.emit(start)
	return req
}

// Irecv posts a non-blocking receive; src may be trace.AnySource.
func (r *Rank) Irecv(src, size, tag int) *Request {
	r.checkPeer(src, true)
	start := r.nowNS
	p := r.rt.params
	r.seq++
	r.nowNS += p.OverheadNS * p.noise(r.id, r.seq) / 2
	req := &Request{ID: r.nextReq, src: src, tag: tag, size: size, matched: -1,
		wildcard: src == trace.AnySource}
	r.nextReq++
	r.pending = append(r.pending, req)
	r.ev = trace.Event{Op: trace.OpIrecv, Size: size, Peer: src, Tag: tag, ReqID: req.ID,
		Wildcard: req.wildcard}
	r.emit(start)
	return req
}

// complete blocks until req is done, consuming its message if a receive.
func (r *Rank) complete(req *Request) {
	if req.done {
		return
	}
	msg := r.match(req.src, req.tag, req.size)
	req.done = true
	req.matched = msg.src
	req.availNS = msg.availNS
	r.nowNS = math.Max(r.nowNS, msg.availNS)
}

// tryComplete attempts non-blocking completion; it reports success.
func (r *Rank) tryComplete(req *Request) bool {
	if req.done {
		return true
	}
	mb := r.rt.boxes[r.id]
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for i, m := range mb.msgs {
		if (req.src == trace.AnySource || m.src == req.src) && m.tag == req.tag {
			if m.size != req.size {
				panic(fmt.Sprintf("mpisim: rank %d: size mismatch irecv(%d) vs send(%d)",
					r.id, req.size, m.size))
			}
			mb.msgs = append(mb.msgs[:i], mb.msgs[i+1:]...)
			req.done = true
			req.matched = m.src
			req.availNS = m.availNS
			r.nowNS = math.Max(r.nowNS, m.availNS)
			return true
		}
	}
	return false
}

// removePending drops req from the pending list, keeping the order of the
// rest.
func (r *Rank) removePending(req *Request) {
	if i := slices.Index(r.pending, req); i >= 0 {
		r.pending = slices.Delete(r.pending, i, i+1)
	}
}

// completion fills r.ev with the event of a completion operation over
// reqs. Its Reqs/ReqSrcs lists are allocated fresh at their final size: the
// sink may keep them.
func (r *Rank) completion(op trace.Op, reqs []*Request) {
	r.ev = trace.Event{Op: op, Peer: trace.NoPeer, ReqID: -1}
	if len(reqs) == 0 {
		return
	}
	e := &r.ev
	e.Reqs = make([]int32, len(reqs))
	hasRecv := false
	for i, q := range reqs {
		e.Reqs[i] = q.ID
		if !q.isSend {
			hasRecv = true
		}
	}
	if hasRecv {
		e.ReqSrcs = make([]int32, len(reqs))
		for i, q := range reqs {
			e.ReqSrcs[i] = int32(q.matched)
		}
	}
}

// Wait blocks until req completes.
func (r *Rank) Wait(req *Request) {
	start := r.nowNS
	r.complete(req)
	r.removePending(req)
	r.completion(trace.OpWait, []*Request{req})
	r.emit(start)
}

// Waitall blocks until every pending request completes, in posted order.
func (r *Rank) Waitall() {
	start := r.nowNS
	for _, q := range r.pending {
		r.complete(q)
	}
	r.completion(trace.OpWaitall, r.pending)
	clear(r.pending)
	r.pending = r.pending[:0]
	r.emit(start)
}

// Waitsome blocks until at least one pending request completes, then also
// reaps every other request that can complete without blocking. It returns
// the number completed (0 only when nothing was pending).
func (r *Rank) Waitsome() int {
	start := r.nowNS
	if len(r.pending) == 0 {
		r.completion(trace.OpWaitsome, nil)
		r.emit(start)
		return 0
	}
	// Block on the first pending request, then sweep the rest.
	first := r.pending[0]
	r.complete(first)
	reaped := append(r.reaped[:0], first)
	for _, q := range r.pending[1:] {
		if r.tryComplete(q) {
			reaped = append(reaped, q)
		}
	}
	// The done requests in pending are exactly the reaped ones: a receive
	// is done only once reaped, and tryComplete reaps every send, which is
	// done from the start.
	r.pending = slices.DeleteFunc(r.pending, func(q *Request) bool { return q.done })
	r.completion(trace.OpWaitsome, reaped)
	n := len(reaped)
	clear(reaped)
	r.reaped = reaped[:0]
	r.emit(start)
	return n
}

// Testany attempts to complete at most one pending request without blocking.
// It returns 1 on completion, 0 otherwise.
func (r *Rank) Testany() int {
	start := r.nowNS
	for _, q := range r.pending {
		if r.tryComplete(q) {
			r.removePending(q)
			r.completion(trace.OpTestany, []*Request{q})
			r.emit(start)
			return 1
		}
	}
	r.completion(trace.OpTestany, nil)
	r.emit(start)
	return 0
}

// PendingCount returns the number of incomplete request handles, used by
// tests and by the interpreter to validate programs.
func (r *Rank) PendingCount() int { return len(r.pending) }

// Init emits the MPI_Init event.
func (r *Rank) Init() {
	start := r.nowNS
	r.ev = trace.Event{Op: trace.OpInit, Peer: trace.NoPeer, ReqID: -1}
	r.emit(start)
}

// Finalize synchronizes all ranks (real MPI_Finalize is collective in
// effect), emits the final event, and notifies the sink.
func (r *Rank) Finalize() {
	if n := len(r.pending); n != 0 {
		panic(fmt.Sprintf("mpisim: rank %d finalized with %d incomplete requests", r.id, n))
	}
	start := r.nowNS
	r.collective(trace.OpFinalize, 0, 0)
	r.ev = trace.Event{Op: trace.OpFinalize, Peer: trace.NoPeer, ReqID: -1}
	r.emit(start)
	r.sink.Finalize()
}
