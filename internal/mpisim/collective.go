package mpisim

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/trace"
)

// collSync synchronizes collectives: every rank in the world communicator
// must call the same collective with the same root and size; the runtime
// aborts on mismatched operations, which in real MPI would deadlock or
// corrupt data.
type collSync struct {
	rt      *Runtime
	mu      sync.Mutex
	cond    *sync.Cond
	arrived int
	gen     uint64
	op      trace.Op
	root    int
	size    int
	maxNow  float64
	finish  float64
}

func newCollSync(rt *Runtime) *collSync {
	c := &collSync{rt: rt}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// enter blocks rank r until all ranks join the collective and returns the
// common finish time of the operation.
func (c *collSync) enter(r *Rank, op trace.Op, root, size int) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.arrived == 0 {
		c.op, c.root, c.size = op, root, size
	} else if c.op != op || c.root != root || c.size != size {
		err := fmt.Errorf("mpisim: collective mismatch: rank %d called %v(root=%d,size=%d) while others called %v(root=%d,size=%d)",
			r.id, op, root, size, c.op, c.root, c.size)
		c.mu.Unlock()
		c.rt.abort(err)
		c.mu.Lock()
		panic(errAborted)
	}
	c.arrived++
	c.maxNow = math.Max(c.maxNow, r.nowNS)
	if c.arrived == c.rt.n {
		c.finish = c.maxNow + c.cost(op, size)
		c.arrived = 0
		c.maxNow = 0
		c.gen++
		c.rt.noteProgress()
		c.cond.Broadcast()
		return c.finish
	}
	myGen := c.gen
	for c.gen == myGen {
		c.rt.markBlocked(+1)
		c.cond.Wait()
		c.rt.markBlocked(-1)
		if c.rt.failureErr() != nil {
			panic(errAborted)
		}
	}
	return c.finish
}

// cost models collective completion time with binomial-tree decompositions,
// the same decomposition the LogGP replay simulator applies (paper Section V
// cites [23] for decomposing collectives into point-to-point operations).
func (c *collSync) cost(op trace.Op, size int) float64 {
	return CollectiveCostNS(c.rt.params, c.rt.n, op, size)
}

// CollectiveCostNS is the shared binomial-tree LogGP cost model for
// collective operations; the SIM-MPI replay simulator uses the same formulas
// so predictions are model-consistent with the synthetic "measurements".
func CollectiveCostNS(p Params, nRanks int, op trace.Op, size int) float64 {
	n := float64(nRanks)
	logn := math.Ceil(math.Log2(math.Max(n, 2)))
	perMsg := p.OverheadNS + p.LatencyNS + p.GapPerByteNS*float64(size)
	switch op {
	case trace.OpBarrier, trace.OpFinalize:
		return 2*p.LatencyNS + p.OverheadNS*logn
	case trace.OpBcast, trace.OpReduce, trace.OpScatter, trace.OpGather:
		return logn * perMsg
	case trace.OpAllreduce:
		return 2 * logn * perMsg
	case trace.OpAllgather:
		return (n-1)*(p.OverheadNS+p.GapPerByteNS*float64(size)) + logn*p.LatencyNS
	case trace.OpAlltoall:
		return (n-1)*(p.OverheadNS+p.GapPerByteNS*float64(size)) + p.LatencyNS
	}
	panic(fmt.Sprintf("mpisim: no cost model for %v", op))
}

// collective runs the synchronization and advances the local clock with
// per-rank jitter.
func (r *Rank) collective(op trace.Op, root, size int) {
	finish := r.rt.coll.enter(r, op, root, size)
	r.seq++
	r.nowNS = finish + (finish-r.nowNS)*(r.rt.params.noise(r.id, r.seq)-1)
	if r.nowNS < finish {
		r.nowNS = finish
	}
}

func (r *Rank) rootedCollective(op trace.Op, root, size int) {
	r.checkPeer(root, false)
	start := r.nowNS
	r.collective(op, root, size)
	r.ev = trace.Event{Op: op, Size: size, Peer: root, ReqID: -1}
	r.emit(start)
}

func (r *Rank) rootlessCollective(op trace.Op, size int) {
	start := r.nowNS
	r.collective(op, 0, size)
	r.ev = trace.Event{Op: op, Size: size, Peer: trace.NoPeer, ReqID: -1}
	r.emit(start)
}

// Barrier synchronizes all ranks.
func (r *Rank) Barrier() { r.rootlessCollective(trace.OpBarrier, 0) }

// Bcast broadcasts size bytes from root.
func (r *Rank) Bcast(root, size int) { r.rootedCollective(trace.OpBcast, root, size) }

// Reduce reduces size bytes to root.
func (r *Rank) Reduce(root, size int) { r.rootedCollective(trace.OpReduce, root, size) }

// Allreduce reduces size bytes to all ranks.
func (r *Rank) Allreduce(size int) { r.rootlessCollective(trace.OpAllreduce, size) }

// Gather gathers size bytes per rank to root.
func (r *Rank) Gather(root, size int) { r.rootedCollective(trace.OpGather, root, size) }

// Scatter scatters size bytes per rank from root.
func (r *Rank) Scatter(root, size int) { r.rootedCollective(trace.OpScatter, root, size) }

// Allgather gathers size bytes per rank to all ranks.
func (r *Rank) Allgather(size int) { r.rootlessCollective(trace.OpAllgather, size) }

// Alltoall exchanges size bytes between every pair of ranks.
func (r *Rank) Alltoall(size int) { r.rootlessCollective(trace.OpAlltoall, size) }
