package simmpi

// matchKey identifies one point-to-point match chain inside a destination's
// match table: messages from one source rank carrying one tag, packed into
// one word so the table's map takes its fast 64-bit key path. The
// destination is implicit in the table index. Sources lie in [0, ranks) and
// the engine rejects tags outside int32, so the packing is exact: negative
// tags keep their 32-bit two's-complement pattern.
func matchKey(src, tag int) uint64 {
	return uint64(uint32(src))<<32 | uint64(uint32(int32(tag)))
}

// msgQueue is a FIFO of in-flight message arrival times. Pointer-valued map
// entries keep the hot send/recv path at one map lookup per operation: push
// and pop mutate the queue in place, where a value-slice map would pay a
// second hash for the re-assign on every push and every pop.
type msgQueue struct {
	buf  []float64
	head int
}

func (q *msgQueue) push(t float64) { q.buf = append(q.buf, t) }

func (q *msgQueue) len() int { return len(q.buf) - q.head }

func (q *msgQueue) pop() float64 {
	t := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	} else if q.head >= 32 && q.head*2 >= len(q.buf) {
		// Reclaim the popped prefix once it dominates the buffer; without
		// this, a queue that never fully drains (producer staying one step
		// ahead of the consumer) grows its buffer by the *total* message
		// count instead of the peak in-flight depth. The copy moves at most
		// as many elements as were popped since the last compaction, so
		// pushes and pops stay amortized O(1).
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return t
}

// matchTable is one destination rank's match table: (source, tag)-keyed
// FIFO queues of in-flight arrival times. Every rank that sends to the
// destination pushes, only the destination pops, so the i-th push on a key
// pairs with the i-th pop — MPI's non-overtaking order.
type matchTable struct {
	q map[uint64]*msgQueue
}

// push appends an arrival time to k's FIFO and returns the depth after the
// push (for the queue-depth histogram).
func (s *matchTable) push(k uint64, t float64) int {
	q := s.q[k]
	if q == nil {
		q = &msgQueue{}
		s.q[k] = q
	}
	q.push(t)
	return q.len()
}

// tryPop removes and returns the head arrival for k, if one is queued.
func (s *matchTable) tryPop(k uint64) (float64, bool) {
	q := s.q[k]
	if q == nil || q.len() == 0 {
		return 0, false
	}
	return q.pop(), true
}
