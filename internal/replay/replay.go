// Package replay decompresses CYPRESS trace trees back into per-rank event
// sequences (paper Section V): a pre-order traversal of the CTT that expands
// loop vertices by their recorded iteration counts, selects branch arms by
// their recorded taken indices, and prints the run-length records of comm
// leaves. The regenerated sequence is what trace-driven simulators consume.
package replay

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/cst"
	"repro/internal/ctt"
	"repro/internal/obs"
	"repro/internal/stride"
	"repro/internal/trace"
)

// Source provides one rank's view of a compressed trace tree. Both the
// per-rank ctt.RankCTT and the post-merge tree implement it.
type Source interface {
	Tree() *cst.Tree
	// Counts returns the loop/pseudo-loop activation counts for a vertex,
	// nil when the rank never executed it.
	Counts(gid int32) *stride.Vector
	// Taken returns the branch-arm taken set, nil when never taken.
	Taken(gid int32) *stride.Set
	// Records returns the comm-leaf records, nil when never executed.
	Records(gid int32) []*ctt.CommRecord
	// Cycles returns the record-cycle annotations for a leaf.
	Cycles(gid int32) []ctt.Cycle
}

// RankSource adapts a per-rank CTT to the Source interface.
type RankSource struct {
	C *ctt.RankCTT
}

// Tree implements Source.
func (s RankSource) Tree() *cst.Tree { return s.C.Tree }

// Counts implements Source.
func (s RankSource) Counts(gid int32) *stride.Vector { return &s.C.Data[gid].Counts }

// Taken implements Source.
func (s RankSource) Taken(gid int32) *stride.Set { return &s.C.Data[gid].Taken }

// Records implements Source.
func (s RankSource) Records(gid int32) []*ctt.CommRecord { return s.C.Data[gid].Records }

// Cycles implements Source.
func (s RankSource) Cycles(gid int32) []ctt.Cycle { return s.C.Data[gid].Cycles }

// Events decompresses rank's event sequence, invoking emit for each event in
// original program order. Recursion (pseudo-loop) replay is approximate, as
// in the paper: levels replay sequentially rather than interleaved. The event
// pointer passed to emit is only valid for the duration of the callback.
func Events(src Source, rank int, emit func(e *trace.Event)) error {
	var ev trace.Event
	var n int64
	err := newReplayer(src, rank, func(rec *ctt.CommRecord, _ int, k int64) {
		synthesize(&ev, rec, rank, k)
		emit(&ev)
		n++
	}).walk()
	sink.Add(obs.ReplayEventsEmitted, n)
	return err
}

// Step is one emitted event of a replay skeleton: the index of its source
// record in the skeleton's record table and the occurrence index within
// that record. Steps hold no pointers, so the garbage collector never scans
// a skeleton's step list, and each is 8 bytes.
type Step struct {
	Rec, K uint32
}

// Skeleton is a rank's replay walk with the rank-relative fields left out: a
// table of the records the walk visits and the (record, occurrence) steps it
// emits. It captures everything about the walk except the peer, which
// PeerForAt derives per rank, so ranks whose resolved views are identical
// can share one skeleton and skip the tree walk entirely (see
// merge.Streamer).
type Skeleton struct {
	Recs  []*ctt.CommRecord
	Steps []Step
}

// Len returns the number of events the skeleton emits.
func (sk *Skeleton) Len() int { return len(sk.Steps) }

// BuildSkeleton walks src once and returns rank's replay skeleton. When emit
// is non-nil, events are additionally synthesized and emitted during the
// walk, exactly as Events would — building a skeleton for the first rank of
// a group costs no second pass. A walk of 2^32 or more events is an error:
// steps count occurrences in 32 bits.
func BuildSkeleton(src Source, rank int, emit func(e *trace.Event)) (*Skeleton, error) {
	// Steps collect in pooled scratch and are copied out at their exact
	// length, so a build leaves neither growth garbage nor spare capacity.
	scratch := stepPool.Get().(*[]Step)
	defer stepPool.Put(scratch)
	steps := (*scratch)[:0]
	defer func() { *scratch = steps[:0] }()
	var ev trace.Event
	var tooLong bool
	r := newReplayer(src, rank, func(rec *ctt.CommRecord, ri int, k int64) {
		if len(steps) == math.MaxUint32 {
			tooLong = true
			return
		}
		steps = append(steps, Step{Rec: uint32(ri), K: uint32(k)})
		if emit != nil {
			synthesize(&ev, rec, rank, k)
			emit(&ev)
		}
	})
	// The record table is the view's records, flattened in GID order.
	recs := make([]*ctt.CommRecord, 0, r.nrec)
	for gid := range r.base {
		recs = append(recs, src.Records(int32(gid))...)
	}
	if err := r.walk(); err != nil {
		return nil, err
	}
	if tooLong {
		return nil, fmt.Errorf("replay: rank %d: walk exceeds a skeleton's 2^32 steps", rank)
	}
	return &Skeleton{Recs: recs, Steps: append([]Step(nil), steps...)}, nil
}

var stepPool = sync.Pool{New: func() any { return new([]Step) }}

// evPool recycles the one event buffer a skeleton scan synthesizes into; the
// buffer escapes through the emit callback, so without pooling every Emit
// call would heap-allocate it and steady-state streaming replay would cost
// one allocation per rank.
var evPool = sync.Pool{New: func() any { return new(trace.Event) }}

// Emit synthesizes the events of the skeleton from rank's perspective, in
// order. Only the rank-relative fields (peer) are re-evaluated; the emitted
// sequence is byte-identical to a full Events walk of the same resolved
// data. The event pointer is only valid during the callback.
func (sk *Skeleton) Emit(rank int, emit func(e *trace.Event)) {
	ev := evPool.Get().(*trace.Event)
	for _, st := range sk.Steps {
		synthesize(ev, sk.Recs[st.Rec], rank, int64(st.K))
		emit(ev)
	}
	*ev = trace.Event{} // drop record-aliased slices before pooling
	evPool.Put(ev)
	sink.Add(obs.ReplayEventsEmitted, int64(len(sk.Steps)))
}

// Cursor is a pull iterator over a replay skeleton: the per-rank-iterator
// entry point streaming consumers (simmpi.SimulateStream) drive. It holds
// O(1) state per rank on top of the shared skeleton.
type Cursor struct {
	sk   *Skeleton
	rank int
	i    int
	ev   trace.Event
	// counted marks the cursor's events as already folded into the sink's
	// emission tally (done once, on exhaustion).
	counted bool
}

// NewCursor returns a cursor over sk from rank's perspective.
func NewCursor(sk *Skeleton, rank int) *Cursor {
	return &Cursor{sk: sk, rank: rank}
}

// Next returns the next event, or false when the sequence is exhausted. The
// returned pointer is only valid until the following Next call.
func (c *Cursor) Next() (*trace.Event, bool) {
	if c.i >= len(c.sk.Steps) {
		if !c.counted {
			c.counted = true
			sink.Add(obs.ReplayEventsEmitted, int64(len(c.sk.Steps)))
		}
		return nil, false
	}
	st := c.sk.Steps[c.i]
	c.i++
	synthesize(&c.ev, c.sk.Recs[st.Rec], c.rank, int64(st.K))
	return &c.ev, true
}

// Len returns the total number of events the cursor will yield.
func (c *Cursor) Len() int { return len(c.sk.Steps) }

// Rewind resets the cursor to the start of its skeleton, so one prepared
// cursor can feed repeated simulations (benchmarks) without re-resolving the
// rank. Each pass counts toward the sink's emission tally.
func (c *Cursor) Rewind() {
	c.i = 0
	c.counted = false
}

// synthesize materializes one replayed event from a record occurrence; the
// single definition shared by Events, Skeleton.Emit, and Cursor keeps every
// replay path byte-identical.
func synthesize(ev *trace.Event, rec *ctt.CommRecord, rank int, k int64) {
	*ev = rec.Ev
	ev.Peer = rec.PeerForAt(rank, k)
	ev.DurationNS = rec.Time.Mean
	ev.ComputeNS = rec.Compute.Mean
}

// newReplayer prepares a walk of rank's view in src that invokes step for
// each record occurrence in original program order. step receives the
// record, its index in the view's records flattened in GID order, and the
// occurrence index within the record.
func newReplayer(src Source, rank int, step func(rec *ctt.CommRecord, ri int, k int64)) *replayer {
	nv := src.Tree().NumVertices()
	r := &replayer{
		src:   src,
		rank:  rank,
		step:  step,
		base:  make([]int, nv),
		rec:   make([]recCursor, nv),
		act:   make([]int64, nv),
		reach: make([]int64, nv),
	}
	for gid := range r.base {
		r.base[gid] = r.nrec
		r.nrec += len(src.Records(int32(gid)))
	}
	return r
}

// walk drives the pre-order tree walk.
func (r *replayer) walk() error {
	tree := r.src.Tree()
	// MPI_Init lives first on the root's record list, MPI_Finalize second.
	if err := r.emitLeaf(tree.Root); err != nil {
		return err
	}
	if _, err := r.walkBody(tree.Root); err != nil {
		return err
	}
	return r.emitLeaf(tree.Root)
}

type recCursor struct {
	idx      int
	consumed int64
	rep      int64 // completed repetitions of the active record cycle
}

// replayer is one walk's state, held in slices indexed by vertex GID so a
// walk allocates O(vertices) once and nothing per event.
type replayer struct {
	src  Source
	rank int
	step func(rec *ctt.CommRecord, ri int, k int64)
	base []int       // index of each vertex's first record in the flattened view
	nrec int         // records in the view
	rec  []recCursor // record cursor per comm leaf (and the root)
	act  []int64     // next activation index per loop vertex
	// reach counts the times each branch site was reached, keyed by the GID
	// of the site's first arm: arms of one (parent, site) group are
	// consecutive children, so the first arm identifies the group.
	reach []int64
}

func (r *replayer) emitLeaf(v *cst.Vertex) error {
	records := r.src.Records(v.GID)
	cur := &r.rec[v.GID]
	if cur.idx >= len(records) {
		return fmt.Errorf("replay: rank %d: leaf %d (%v) out of records", r.rank, v.GID, v.Op)
	}
	rec := records[cur.idx]
	r.step(rec, r.base[v.GID]+cur.idx, cur.consumed)
	cur.consumed++
	if cur.consumed >= rec.Count {
		cur.idx++
		cur.consumed = 0
		// Record cycles: after the block's last record, loop back to its
		// start until the repetitions are exhausted.
		for _, cy := range r.src.Cycles(v.GID) {
			if int32(cur.idx) == cy.Start+cy.Len {
				cur.rep++
				if cur.rep < cy.Reps {
					cur.idx = int(cy.Start)
				} else {
					cur.rep = 0
				}
				break
			}
		}
	}
	return nil
}

// nextActivation consumes the next activation count for a loop vertex.
func (r *replayer) nextActivation(v *cst.Vertex) (int64, error) {
	counts := r.src.Counts(v.GID)
	idx := r.act[v.GID]
	if counts == nil || idx >= counts.Len() {
		return 0, fmt.Errorf("replay: rank %d: loop %d out of activations", r.rank, v.GID)
	}
	r.act[v.GID] = idx + 1
	return counts.At(idx), nil
}

// walkBody replays the children of v once; it reports whether execution
// unwound through an early return.
func (r *replayer) walkBody(v *cst.Vertex) (bool, error) {
	children := v.Children
	for i := 0; i < len(children); {
		c := children[i]
		switch c.Kind {
		case cst.KindComm:
			if err := r.emitLeaf(c); err != nil {
				return false, err
			}
			i++
		case cst.KindLoop:
			n, err := r.nextActivation(c)
			if err != nil {
				return false, err
			}
			for k := int64(0); k < n; k++ {
				ret, err := r.walkBody(c)
				if err != nil {
					return false, err
				}
				if ret {
					return true, nil
				}
			}
			if c.Returns && n >= 1 {
				// The loop body ends in an unconditional return; having
				// iterated at least once means the function exited here.
				return true, nil
			}
			i++
		case cst.KindBranch:
			// Group the consecutive arms of this if site.
			j := i
			for j < len(children) && children[j].Kind == cst.KindBranch && children[j].Site == c.Site {
				j++
			}
			idx := r.reach[c.GID]
			r.reach[c.GID] = idx + 1
			for _, arm := range children[i:j] {
				taken := r.src.Taken(arm.GID)
				if taken != nil && taken.Contains(idx) {
					ret, err := r.walkBody(arm)
					if err != nil {
						return false, err
					}
					if ret || arm.Returns {
						return true, nil
					}
					break
				}
			}
			i = j
		case cst.KindCall:
			if c.Recursive {
				levels, err := r.nextActivation(c)
				if err != nil {
					return false, err
				}
				for k := int64(0); k < levels; k++ {
					// Each recursion level replays one pass of the unrolled
					// body; early returns end the level, not the caller.
					if _, err := r.walkBody(c); err != nil {
						return false, err
					}
				}
			} else {
				// A non-recursive call's return never unwinds the caller.
				if _, err := r.walkBody(c); err != nil {
					return false, err
				}
			}
			i++
		case cst.KindRecCall:
			// Recursion loop-backs were already accounted for in the
			// pseudo-loop's level count.
			i++
		default:
			return false, fmt.Errorf("replay: unexpected vertex kind %v", c.Kind)
		}
	}
	return false, nil
}

// Sequence materializes the full decompressed event list for one rank.
func Sequence(src Source, rank int) ([]trace.Event, error) {
	var out []trace.Event
	err := Events(src, rank, func(e *trace.Event) {
		out = append(out, *e)
	})
	return out, err
}

// Equivalent compares a raw traced sequence against a decompressed one,
// ignoring the representational differences compression introduces: request
// identifiers are rewritten to GIDs (list lengths must still match), timing
// is summarized, completion records drop per-request resolved sources, and
// non-blocking wildcard receives carry the resolved source instead of
// AnySource. Everything else must match exactly, in order.
func Equivalent(raw, replayed []trace.Event) error {
	if len(raw) != len(replayed) {
		return fmt.Errorf("replay: length mismatch: raw %d vs replayed %d", len(raw), len(replayed))
	}
	for i := range raw {
		a, b := raw[i], replayed[i]
		if a.Op != b.Op || a.Size != b.Size || a.Tag != b.Tag || a.Comm != b.Comm ||
			a.Wildcard != b.Wildcard || len(a.Reqs) != len(b.Reqs) {
			return fmt.Errorf("replay: event %d mismatch: raw %v vs replayed %v", i, a, b)
		}
		peerOK := a.Peer == b.Peer
		if a.Op == trace.OpIrecv && a.Wildcard {
			// Raw has AnySource; replayed has the resolved source.
			peerOK = b.Peer != trace.AnySource
		}
		if !peerOK {
			return fmt.Errorf("replay: event %d peer mismatch: raw %v vs replayed %v", i, a, b)
		}
	}
	return nil
}
