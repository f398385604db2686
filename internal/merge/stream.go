// Streaming, group-aware decompression of merged trace trees.
//
// rankView (merge.go) answers every replay.Source accessor with a linear scan
// of the vertex's entry list, so a tree walk pays O(4·groups) per visited
// vertex — once per Counts, Taken, Records, and Cycles call, at every vertex
// visit of every loop iteration. The Streamer below replaces that with a
// per-rank RESOLVED VIEW: one pass over Merged.Entries produces a flat
// []*ctt.VData indexed by gid, turning every accessor into an O(1) index.
// View storage is reused across the ranks one worker resolves, so resolving
// rank r+1 costs zero allocations after rank r.
//
// The resolver also exploits the SPMD structure the merge itself discovered:
// while resolving it records WHICH entry each vertex selected (the selection
// vector). Ranks with identical selection vectors see identical resolved
// data, so their tree walks emit the same sequence of (record, occurrence)
// steps — only the rank-relative peer fields differ. The Streamer therefore
// memoizes one REPLAY SKELETON (replay.Skeleton) per selection class and
// replays all other ranks of the class by a flat scan over the shared steps
// (Skeleton.Emit / replay.Cursor), skipping the tree walk entirely.
// For a P-rank SPMD job with k classes (k ≈ 1–3 in practice) the tree is
// walked k times instead of P times.
//
// Sequence preservation: a skeleton build IS the ordinary replay walk (the
// same walkSteps recursion Events uses), and walk decisions depend only on
// the resolved payloads — Counts, Taken, Records, Cycles — never on the rank
// itself (the rank only parameterizes PeerForAt and error text). Skeleton
// classes are keyed by the exact selection vector (a 64-bit fingerprint
// routes to a class; membership is confirmed by comparing the vectors
// element-wise), so two ranks share steps only when their resolved views are
// identical, and the emitted sequences are byte-identical to per-rank walks.
package merge

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/cst"
	"repro/internal/ctt"
	"repro/internal/fp"
	"repro/internal/obs"
	ftrace "repro/internal/obs/trace"
	"repro/internal/replay"
	"repro/internal/stride"
	"repro/internal/trace"
)

// Resolved is one rank's flattened view of a merged tree: vertex data indexed
// directly by gid. It implements replay.Source with O(1) accessors, replacing
// rankView's per-accessor scan over the vertex's entry list.
type Resolved struct {
	tree *cst.Tree
	data []*ctt.VData // indexed by gid; nil when the rank never executed it
	rank int
}

// Tree implements replay.Source.
func (r *Resolved) Tree() *cst.Tree { return r.tree }

// Counts implements replay.Source.
func (r *Resolved) Counts(gid int32) *stride.Vector {
	if d := r.data[gid]; d != nil {
		return &d.Counts
	}
	return nil
}

// Taken implements replay.Source.
func (r *Resolved) Taken(gid int32) *stride.Set {
	if d := r.data[gid]; d != nil {
		return &d.Taken
	}
	return nil
}

// Records implements replay.Source.
func (r *Resolved) Records(gid int32) []*ctt.CommRecord {
	if d := r.data[gid]; d != nil {
		return d.Records
	}
	return nil
}

// Cycles implements replay.Source.
func (r *Resolved) Cycles(gid int32) []ctt.Cycle {
	if d := r.data[gid]; d != nil {
		return d.Cycles
	}
	return nil
}

// replayClass is one selection class: the set of ranks whose resolved views
// are identical, sharing one memoized replay skeleton.
type replayClass struct {
	sel []int32          // entry index per gid (-1 = not executed); exact identity
	sk  *replay.Skeleton // memoized (record, occurrence) sequence
}

// resolveScratch is the per-resolve working set. Each worker of Prepare
// and ReplayAll reuses one across its ranks; it is not pooled on the
// Streamer, because a pool referenced from the runtime's pool list would
// keep the whole Streamer — skeletons and decoded tree included — alive
// until two garbage collections after its last use.
type resolveScratch struct {
	data []*ctt.VData
	sel  []int32
}

func (s *Streamer) newScratch() *resolveScratch {
	nv := len(s.m.Entries)
	return &resolveScratch{data: make([]*ctt.VData, nv), sel: make([]int32, nv)}
}

// Streamer replays ranks of a merged tree through resolved views and
// memoized, group-shared replay skeletons. It is safe for concurrent use;
// skeletons are built at most once per selection class (modulo benign
// warm-up races, where the first stored skeleton wins).
//
// Memory: the Streamer retains one selection vector (4 bytes per vertex) and
// one skeleton (8 bytes per event of one rank's sequence, plus its record
// table) per class — for SPMD jobs a constant independent of P, and always
// at most the cost of materializing the distinct per-rank sequences once.
type Streamer struct {
	m *Merged

	mu      sync.Mutex
	classes map[fp.Hash][]*replayClass // hash → collision chain
	byRank  []*replayClass             // memoized rank → class
}

// NewStreamer returns a streaming replayer for m. The Streamer aliases m's
// entries; m must not be merged further while the Streamer is in use.
func NewStreamer(m *Merged) *Streamer {
	return &Streamer{
		m:       m,
		classes: make(map[fp.Hash][]*replayClass),
		byRank:  make([]*replayClass, m.NumRanks),
	}
}

// NumRanks returns the number of ranks in the underlying tree.
func (s *Streamer) NumRanks() int { return s.m.NumRanks }

// EventCount returns the total event count of the underlying tree.
func (s *Streamer) EventCount() int64 { return s.m.EventCount }

// resolve fills sc with rank's resolved view and selection vector and returns
// the selection fingerprint. One pass over the entry lists: O(groups scanned)
// total, instead of O(groups) per accessor call during the walk. On a
// selectively decoded tree this is where lazy payload sections are filled
// (and where a corrupt skipped section surfaces its error).
func (s *Streamer) resolve(rank int, sc *resolveScratch) (fp.Hash, error) {
	h := fp.New()
	for gid, es := range s.m.Entries {
		sc.data[gid] = nil
		sc.sel[gid] = -1
		for i := range es {
			if es[i].Ranks.Contains(rank) {
				d, err := s.m.entryData(&es[i])
				if err != nil {
					return h, fmt.Errorf("merge: resolving rank %d at vertex %d: %w", rank, gid, err)
				}
				sc.data[gid] = d
				sc.sel[gid] = int32(i)
				h = h.Word(uint64(gid)).Word(uint64(i))
				break
			}
		}
	}
	return h, nil
}

// lookup returns the memoized class whose selection vector equals sel, or nil.
// Caller holds s.mu.
func (s *Streamer) lookup(h fp.Hash, sel []int32) *replayClass {
	for _, c := range s.classes[h] {
		if selEqual(c.sel, sel) {
			return c
		}
	}
	return nil
}

func selEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// classFor resolves rank and returns its selection class, building and
// memoizing the replay skeleton on first contact with the class. When emit is
// non-nil and the class was not yet memoized, the skeleton-building walk
// streams rank's events into emit and the returned bool is true (the caller
// must not emit again). sc is the caller's resolve scratch; nil allocates one
// if the rank needs resolving.
func (s *Streamer) classFor(rank int, emit func(*trace.Event), sc *resolveScratch) (*replayClass, bool, error) {
	if rank < 0 || rank >= s.m.NumRanks {
		return nil, false, fmt.Errorf("merge: replay rank %d out of range [0,%d)", rank, s.m.NumRanks)
	}
	s.mu.Lock()
	if c := s.byRank[rank]; c != nil {
		s.mu.Unlock()
		sink.Inc(obs.ReplayRankMemoHits)
		rec.Instant(ftrace.CatReplay, ftrace.NameMemoHit, 0, int64(rank), memoHitRank)
		return c, false, nil
	}
	s.mu.Unlock()

	if sc == nil {
		sc = s.newScratch()
	}
	h, err := s.resolve(rank, sc)
	if err != nil {
		return nil, false, err
	}

	s.mu.Lock()
	if c := s.lookup(h, sc.sel); c != nil {
		s.byRank[rank] = c
		s.mu.Unlock()
		sink.Inc(obs.ReplayClassReuses)
		rec.Instant(ftrace.CatReplay, ftrace.NameMemoHit, 0, int64(rank), memoHitClass)
		return c, false, nil
	}
	s.mu.Unlock()

	// Build outside the lock: skeleton construction is the expensive part and
	// other classes' ranks should not serialize behind it. A concurrent
	// builder of the same class loses the insert race below and discards its
	// duplicate — correctness is unaffected (both walks produce equal steps).
	view := &Resolved{tree: s.m.Tree, data: sc.data, rank: rank}
	bsp := sink.Start(obs.StageSkeleton)
	tsp := rec.Begin(ftrace.CatReplay, ftrace.NameSkeleton, 0)
	sk, err := replay.BuildSkeleton(view, rank, emit)
	var nsteps int64
	if sk != nil {
		nsteps = int64(sk.Len())
	}
	tsp.End(int64(rank), nsteps)
	bsp.End()
	sink.Inc(obs.ReplaySkeletonBuilds)
	if err != nil {
		return nil, emit != nil, err
	}
	c := &replayClass{sel: append([]int32(nil), sc.sel...), sk: sk}

	s.mu.Lock()
	if prior := s.lookup(h, sc.sel); prior != nil {
		c = prior
	} else {
		s.classes[h] = append(s.classes[h], c)
	}
	s.byRank[rank] = c
	s.mu.Unlock()
	return c, emit != nil, nil
}

// Replay streams rank's exact event sequence into emit. The first rank of
// each selection class pays one tree walk (which doubles as the skeleton
// build); every later rank of the class is a flat scan over the shared
// skeleton. The event pointer is only valid during the callback. The emitted
// sequence is byte-identical to replay.Events over ForRank(rank).
func (s *Streamer) Replay(rank int, emit func(e *trace.Event)) error {
	return s.replay(rank, emit, nil)
}

func (s *Streamer) replay(rank int, emit func(e *trace.Event), sc *resolveScratch) error {
	c, emitted, err := s.classFor(rank, emit, sc)
	if err != nil || emitted {
		return err
	}
	c.sk.Emit(rank, emit)
	return nil
}

// Cursor returns a pull iterator over rank's event sequence, backed by the
// rank's (possibly shared) replay skeleton: O(1) per-rank state, suitable for
// feeding simmpi.SimulateStream without materializing the sequence.
func (s *Streamer) Cursor(rank int) (*replay.Cursor, error) {
	c, _, err := s.classFor(rank, nil, nil)
	if err != nil {
		return nil, err
	}
	return replay.NewCursor(c.sk, rank), nil
}

// Prepare resolves every rank and builds every selection class's skeleton
// under a bounded worker pool (workers <= 0 uses GOMAXPROCS). Calling it
// first makes subsequent Cursor calls O(1); Replay and Cursor also build
// lazily, so Prepare is an optimization, not a requirement.
func (s *Streamer) Prepare(workers int) error {
	return s.forEachRank(workers, func(rank int, sc *resolveScratch) error {
		_, _, err := s.classFor(rank, nil, sc)
		return err
	})
}

// ReplayAll streams every rank's sequence under a bounded worker pool
// (workers <= 0 uses GOMAXPROCS). fn is invoked concurrently from multiple
// goroutines, but events of one rank arrive in order on a single goroutine;
// per-rank accumulation (one matrix row per rank, say) needs no locking. The
// first error stops no other lanes but is the one returned.
func (s *Streamer) ReplayAll(workers int, fn func(rank int, e *trace.Event)) error {
	return s.forEachRank(workers, func(rank int, sc *resolveScratch) error {
		return s.replay(rank, func(e *trace.Event) { fn(rank, e) }, sc)
	})
}

// forEachRank fans fn out over ranks with an atomic work counter, so
// stragglers do not serialize behind a static partition. Each worker passes
// fn one resolve scratch for all its ranks.
func (s *Streamer) forEachRank(workers int, fn func(rank int, sc *resolveScratch) error) error {
	n := s.m.NumRanks
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		sc := s.newScratch()
		for rank := 0; rank < n; rank++ {
			if err := fn(rank, sc); err != nil {
				return err
			}
		}
		return nil
	}
	var next atomic.Int64
	next.Store(-1)
	var firstErr atomic.Pointer[error]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := s.newScratch()
			for {
				rank := int(next.Add(1))
				if rank >= n {
					return
				}
				if err := fn(rank, sc); err != nil {
					firstErr.CompareAndSwap(nil, &err)
				}
			}
		}()
	}
	wg.Wait()
	if ep := firstErr.Load(); ep != nil {
		return *ep
	}
	return nil
}

// ClassCount reports how many selection classes have been discovered so far
// (a measure of SPMD uniformity: 1 means every resolved rank shares one
// skeleton). Only ranks already replayed or prepared are counted.
func (s *Streamer) ClassCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, chain := range s.classes {
		n += len(chain)
	}
	return n
}
