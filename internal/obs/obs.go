// Package obs is the pipeline's zero-overhead-when-disabled metrics core.
//
// Every instrumented stage holds a *Sink. A nil sink is the disabled state:
// all methods are defined on the pointer receiver and begin with a nil check,
// so the hot paths pay one predictable branch and zero allocations when
// observation is off — no interface dispatch (the sink is a concrete type),
// no atomic loads, no time reads. With a sink attached, counters are single
// atomic adds, histograms are one atomic add into a power-of-two bucket, and
// stage spans are a time.Now pair folded into two atomics; none of it
// allocates, so the PR1–PR3 allocs/op budgets hold with the sink on as well.
//
// The Sink is safe for concurrent use. The data model is deliberately flat:
// a fixed enum of counters, a fixed enum of bounded power-of-two histograms,
// and a fixed enum of stage timers. Report() snapshots everything into a
// JSON/text-serializable Report, and Publish exposes the same snapshot as an
// expvar for the -debug.addr endpoints.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter enumerates the pipeline's monotonic counters. The groups mirror the
// pipeline stages: compressor event intake, stride compression, inter-process
// merge reduction, encode/decode (including buffer-pool traffic), and
// streaming replay/simulation.
type Counter uint8

const (
	// Compressor event intake (internal/ctt).
	CompEvents           Counter = iota // MPI events seen by Compressor.Event
	CompMergeHits                       // events folded into an existing record
	CompNewRecords                      // events that opened a new record
	CompPeerPatternFolds                // events folded by extending a peer cycle
	CompCycleFolds                      // events consumed by an open record cycle
	CompWildcardCached                  // wildcard receives parked until resolution
	CompWildcardResolved                // cached wildcard receives flushed at completion
	CompReqPeak                         // peak live non-blocking requests (gauge)
	CompWildPeak                        // peak cached wildcard events (gauge)

	// Stride compression (aggregated at Compressor.Finish).
	StrideValues         // values stored across loop/taken vectors
	StrideRuns           // stride runs holding them
	StrideBytesSaved     // raw bytes minus encoded bytes (when positive)
	StrideIncompressible // vectors whose run encoding beat raw by nothing

	// Inter-process merge reduction (internal/merge).
	MergePairs           // Pair invocations
	MergeTreeFastHits    // whole-tree span fast-path pairs
	MergeFPRelHits       // per-entry relative-fingerprint fast-path unifications
	MergeFPAbsHits       // per-entry absolute-fingerprint fast-path unifications
	MergeExhaustiveWalks // entry comparisons that fell back to the full walk
	MergeEntriesUnmerged // right-hand entries appended unmerged (new rank group)
	MergePoisonings      // abs-merge RelUnsafe poisonings
	MergeScratchReuses   // recycled right-leaf scratch trees served
	MergeScratchRetires  // scratch trees retired because an entry escaped

	// Encode/decode (internal/merge serialize + internal/encpool).
	EncTraces       // Encode calls
	EncBytesRaw     // total raw encoded bytes
	EncBytesCST     // of which: embedded CST section
	EncBytesRecords // of which: entry/record section
	EncGzipTraces   // EncodeGzip calls
	EncBytesGzip    // gzip-compressed output bytes
	DecTraces       // Decode calls
	DecEntries      // entries decoded
	DecRecords      // comm records decoded
	PoolGzipGets    // encpool gzip-writer checkouts
	PoolGzipNews    // of which: constructed fresh (pool miss)
	PoolBufioGets   // bufio-writer checkouts
	PoolBufioNews   // pool misses
	PoolReaderGets  // bufio-reader checkouts
	PoolReaderNews  // pool misses
	PoolBufferGets  // staging-buffer checkouts
	PoolBufferNews  // pool misses
	PoolFlateGets   // flate-writer checkouts (blocked frame compression)
	PoolFlateNews   // pool misses
	PoolInflateGets // flate-reader checkouts (blocked frame decompression)
	PoolInflateNews // pool misses

	// Block-parallel container I/O (internal/blockio).
	EncBlockedTraces // EncodeBlocked calls
	EncBytesBlocked  // CYPB container output bytes
	IOFramesEnc      // frames compressed into CYPB containers
	IOFramesDec      // frames inflated out of CYPB containers

	// Streaming replay and simulation (internal/merge.Streamer,
	// internal/replay, internal/simmpi).
	ReplayRankMemoHits   // ranks answered from the rank→class memo
	ReplayClassReuses    // resolved ranks that joined an existing class
	ReplaySkeletonBuilds // replay skeletons built (one tree walk each)
	ReplayEventsEmitted  // events synthesized by replay paths
	SimEventsProcessed   // events consumed by the LogGP engine
	SimBlockedCopies     // blocked events copied into rank-local buffers
	SimWindows           // simulator scheduling rounds over the ready list
	SimBarrierStalls     // rank visits that made no progress (spurious wake-ups)
	SimMatchDepthPeak    // peak per-key match-table depth (gauge)

	// Content-addressed corpus (internal/corpus).
	CorpusIngests      // traces offered to Store.Ingest
	CorpusDuplicates   // ingests answered by an existing content hash
	CorpusDeltaRuns    // runs stored as payload deltas against a class rep
	CorpusFullRuns     // runs stored as full standalone encodings
	CorpusClasses      // structural classes created
	CorpusLogicalBytes // standalone-encoding bytes represented by the corpus
	CorpusStoredBytes  // run-record body bytes actually written
	CorpusGets         // Store.Get / GetBytes calls
	CorpusCacheHits    // gets served by the decoded-trace cache
	CorpusCacheMisses  // gets that had to reconstruct and decode
	CorpusCacheEvicts  // decoded traces evicted from the cache

	// Selective decode with projection pushdown (merge.DecodeSelect).
	SelDecodes           // selective decodes served by the projection walk
	SelFallbacks         // DecodeSelect calls that fell back to a full decode
	SelEntriesEager      // entries whose payload decoded eagerly (selection hit)
	SelEntriesSkipped    // entries left as lazy payload offsets
	SelBytesMaterialized // payload bytes decoded eagerly
	SelBytesSkipped      // payload bytes skipped at decode time
	SelLazyFills         // skipped payload sections filled on first touch
	SelLazyFillBytes     // payload bytes filled lazily

	NumCounters // sentinel; must be last
)

var counterNames = [NumCounters]string{
	CompEvents:           "comp_events",
	CompMergeHits:        "comp_merge_hits",
	CompNewRecords:       "comp_new_records",
	CompPeerPatternFolds: "comp_peer_pattern_folds",
	CompCycleFolds:       "comp_cycle_folds",
	CompWildcardCached:   "comp_wildcard_cached",
	CompWildcardResolved: "comp_wildcard_resolved",
	CompReqPeak:          "comp_req_table_peak",
	CompWildPeak:         "comp_wildcard_cache_peak",
	StrideValues:         "stride_values",
	StrideRuns:           "stride_runs",
	StrideBytesSaved:     "stride_bytes_saved",
	StrideIncompressible: "stride_incompressible_vectors",
	MergePairs:           "merge_pairs",
	MergeTreeFastHits:    "merge_tree_fast_hits",
	MergeFPRelHits:       "merge_fp_rel_hits",
	MergeFPAbsHits:       "merge_fp_abs_hits",
	MergeExhaustiveWalks: "merge_exhaustive_walks",
	MergeEntriesUnmerged: "merge_entries_unmerged",
	MergePoisonings:      "merge_abs_poisonings",
	MergeScratchReuses:   "merge_scratch_reuses",
	MergeScratchRetires:  "merge_scratch_retires",
	EncTraces:            "enc_traces",
	EncBytesRaw:          "enc_bytes_raw",
	EncBytesCST:          "enc_bytes_cst",
	EncBytesRecords:      "enc_bytes_records",
	EncGzipTraces:        "enc_gzip_traces",
	EncBytesGzip:         "enc_bytes_gzip",
	DecTraces:            "dec_traces",
	DecEntries:           "dec_entries",
	DecRecords:           "dec_records",
	PoolGzipGets:         "pool_gzip_gets",
	PoolGzipNews:         "pool_gzip_news",
	PoolBufioGets:        "pool_bufio_gets",
	PoolBufioNews:        "pool_bufio_news",
	PoolReaderGets:       "pool_reader_gets",
	PoolReaderNews:       "pool_reader_news",
	PoolBufferGets:       "pool_buffer_gets",
	PoolBufferNews:       "pool_buffer_news",
	PoolFlateGets:        "pool_flate_gets",
	PoolFlateNews:        "pool_flate_news",
	PoolInflateGets:      "pool_inflate_gets",
	PoolInflateNews:      "pool_inflate_news",
	EncBlockedTraces:     "enc_blocked_traces",
	EncBytesBlocked:      "enc_bytes_blocked",
	IOFramesEnc:          "io_frames_encoded",
	IOFramesDec:          "io_frames_decoded",
	ReplayRankMemoHits:   "replay_rank_memo_hits",
	ReplayClassReuses:    "replay_class_reuses",
	ReplaySkeletonBuilds: "replay_skeleton_builds",
	ReplayEventsEmitted:  "replay_events_emitted",
	SimEventsProcessed:   "sim_events_processed",
	SimBlockedCopies:     "sim_blocked_copies",
	SimWindows:           "sim_windows",
	SimBarrierStalls:     "sim_barrier_stalls",
	SimMatchDepthPeak:    "sim_match_table_peak",
	CorpusIngests:        "corpus_ingests",
	CorpusDuplicates:     "corpus_duplicates",
	CorpusDeltaRuns:      "corpus_delta_runs",
	CorpusFullRuns:       "corpus_full_runs",
	CorpusClasses:        "corpus_classes",
	CorpusLogicalBytes:   "corpus_logical_bytes",
	CorpusStoredBytes:    "corpus_stored_bytes",
	CorpusGets:           "corpus_gets",
	CorpusCacheHits:      "corpus_cache_hits",
	CorpusCacheMisses:    "corpus_cache_misses",
	CorpusCacheEvicts:    "corpus_cache_evicts",
	SelDecodes:           "sel_decodes",
	SelFallbacks:         "sel_fallbacks",
	SelEntriesEager:      "sel_entries_eager",
	SelEntriesSkipped:    "sel_entries_skipped",
	SelBytesMaterialized: "sel_bytes_materialized",
	SelBytesSkipped:      "sel_bytes_skipped",
	SelLazyFills:         "sel_lazy_fills",
	SelLazyFillBytes:     "sel_lazy_fill_bytes",
}

// String returns the counter's stable snake_case name (the JSON/expvar key).
func (c Counter) String() string {
	if c < NumCounters {
		return counterNames[c]
	}
	return "unknown_counter"
}

// Hist enumerates the bounded power-of-two histograms.
type Hist uint8

const (
	HistReqOccupancy    Hist = iota // live requests at each non-blocking post
	HistWildcardDepth               // cached wildcard events at each cache insert
	HistSimQueueDepth               // in-flight message queue depth at each send
	HistSimWindowEvents             // events processed per simulator scheduling round
	HistIOFrameBytes                // compressed bytes per CYPB frame
	HistIOCompressNS                // wall time deflating one frame
	HistIOInflateNS                 // wall time inflating one frame
	// Per-depth merge pair wall times: L1 merges two leaves, L2 merges two
	// 2-rank trees, and so on; L8 absorbs every deeper level.
	HistMergePairL1
	HistMergePairL2
	HistMergePairL3
	HistMergePairL4
	HistMergePairL5
	HistMergePairL6
	HistMergePairL7
	HistMergePairL8
	// Corpus ingest/serve distributions.
	HistCorpusDeltaPermille // stored body bytes per mille of the standalone encoding
	HistCorpusGetNS         // wall time per Store.Get (cache hits and misses)

	NumHists // sentinel; must be last
)

var histNames = [NumHists]string{
	HistReqOccupancy:        "req_table_occupancy",
	HistWildcardDepth:       "wildcard_cache_depth",
	HistSimQueueDepth:       "sim_queue_depth",
	HistSimWindowEvents:     "sim_window_events",
	HistIOFrameBytes:        "io_frame_bytes",
	HistIOCompressNS:        "io_compress_ns",
	HistIOInflateNS:         "io_inflate_ns",
	HistMergePairL1:         "merge_pair_ns_l1",
	HistMergePairL2:         "merge_pair_ns_l2",
	HistMergePairL3:         "merge_pair_ns_l3",
	HistMergePairL4:         "merge_pair_ns_l4",
	HistMergePairL5:         "merge_pair_ns_l5",
	HistMergePairL6:         "merge_pair_ns_l6",
	HistMergePairL7:         "merge_pair_ns_l7",
	HistMergePairL8:         "merge_pair_ns_l8",
	HistCorpusDeltaPermille: "corpus_delta_permille",
	HistCorpusGetNS:         "corpus_get_ns",
}

// String returns the histogram's stable snake_case name.
func (h Hist) String() string {
	if h < NumHists {
		return histNames[h]
	}
	return "unknown_hist"
}

// MergePairHist maps a reduction level (1 = pair of two leaf trees) to its
// per-depth timing histogram; levels beyond 8 fold into the last bucket.
func MergePairHist(level int) Hist {
	if level < 1 {
		level = 1
	}
	if level > 8 {
		level = 8
	}
	return HistMergePairL1 + Hist(level-1)
}

// Stage enumerates the coarse pipeline stages with span timers.
type Stage uint8

const (
	StageCompress Stage = iota // traced run (event intake)
	StageFinish                // per-rank Compressor.Finish
	StageMerge                 // inter-process reduction (merge.All)
	StageEncode                // trace serialization
	StageDecode                // trace deserialization
	StageSkeleton              // replay skeleton construction
	StageSimulate              // LogGP simulation
	NumStages                  // sentinel; must be last
)

var stageNames = [NumStages]string{
	StageCompress: "compress",
	StageFinish:   "finish",
	StageMerge:    "merge",
	StageEncode:   "encode",
	StageDecode:   "decode",
	StageSkeleton: "skeleton",
	StageSimulate: "simulate",
}

// String returns the stage's stable name.
func (st Stage) String() string {
	if st < NumStages {
		return stageNames[st]
	}
	return "unknown_stage"
}

// HistBuckets bounds every histogram: bucket 0 holds values <= 0, bucket i
// holds values v with bits.Len64(v) == i (i.e. 2^(i-1) <= v < 2^i), and the
// final bucket absorbs everything larger (~2^30 and up).
const HistBuckets = 31

// Histogram is a bounded power-of-two histogram. The zero value is ready for
// use; all methods are safe for concurrent use.
type Histogram struct {
	buckets [HistBuckets]atomic.Int64
	sum     atomic.Int64
}

// bucketOf maps a value to its power-of-two bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// BucketUpper returns the inclusive upper bound of bucket i.
func BucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= HistBuckets-1 {
		return int64(1)<<62 - 1 // effectively unbounded
	}
	return int64(1)<<uint(i) - 1
}

// observe records one value.
func (h *Histogram) observe(v int64) {
	h.buckets[bucketOf(v)].Add(1)
	h.sum.Add(v)
}

// stageRec is one stage timer's accumulators.
type stageRec struct {
	count   atomic.Int64
	totalNS atomic.Int64
}

// Sink collects pipeline metrics. The zero value is ready for use; a nil
// *Sink is the disabled state and every method on it is a cheap no-op.
type Sink struct {
	counters [NumCounters]atomic.Int64
	hists    [NumHists]Histogram
	stages   [NumStages]stageRec
}

// New returns an empty enabled sink.
func New() *Sink { return &Sink{} }

// Enabled reports whether the sink collects anything (i.e. is non-nil).
func (s *Sink) Enabled() bool { return s != nil }

// Inc adds 1 to a counter.
func (s *Sink) Inc(c Counter) {
	if s == nil {
		return
	}
	s.counters[c].Add(1)
}

// Add adds n to a counter.
func (s *Sink) Add(c Counter, n int64) {
	if s == nil || n == 0 {
		return
	}
	s.counters[c].Add(n)
}

// SetMax raises a gauge-style counter to v if v exceeds its current value.
func (s *Sink) SetMax(c Counter, v int64) {
	if s == nil {
		return
	}
	cur := s.counters[c].Load()
	for v > cur && !s.counters[c].CompareAndSwap(cur, v) {
		cur = s.counters[c].Load()
	}
}

// Observe records v into a histogram.
func (s *Sink) Observe(h Hist, v int64) {
	if s == nil {
		return
	}
	s.hists[h].observe(v)
}

// Value returns a counter's current value (0 on a nil sink).
func (s *Sink) Value(c Counter) int64 {
	if s == nil {
		return 0
	}
	return s.counters[c].Load()
}

// HistCount returns the number of observations a histogram holds.
func (s *Sink) HistCount(h Hist) int64 {
	if s == nil {
		return 0
	}
	var n int64
	for i := range s.hists[h].buckets {
		n += s.hists[h].buckets[i].Load()
	}
	return n
}

// Span is an in-flight stage timer token. The zero value (from a nil sink)
// ends as a no-op.
type Span struct {
	s  *Sink
	st Stage
	t0 time.Time
}

// Start opens a span timer for a stage. End it with End; tokens are values
// and never allocate.
func (s *Sink) Start(st Stage) Span {
	if s == nil {
		return Span{}
	}
	return Span{s: s, st: st, t0: time.Now()}
}

// End closes the span, folding its wall time into the stage's accumulators.
func (sp Span) End() {
	if sp.s == nil {
		return
	}
	r := &sp.s.stages[sp.st]
	r.count.Add(1)
	r.totalNS.Add(time.Since(sp.t0).Nanoseconds())
}

// ObserveSince records the nanoseconds elapsed since t0 into a histogram
// (used by the per-depth merge timings, whose depth is only known at the
// observation site).
func (s *Sink) ObserveSince(h Hist, t0 time.Time) {
	if s == nil {
		return
	}
	s.hists[h].observe(time.Since(t0).Nanoseconds())
}

// LocalHist is a single-goroutine histogram for hot loops that cannot afford
// an atomic per observation: Observe is two plain adds into local memory, and
// FlushHist folds the whole thing into a shared sink histogram with one
// atomic add per non-empty bucket. The zero value is ready for use.
type LocalHist struct {
	buckets [HistBuckets]int64
	sum     int64
}

// Observe records one value locally (not safe for concurrent use).
func (l *LocalHist) Observe(v int64) {
	l.buckets[bucketOf(v)]++
	l.sum += v
}

// FlushHist merges l into histogram h and zeroes l. On a nil sink the local
// tallies are discarded.
func (s *Sink) FlushHist(h Hist, l *LocalHist) {
	if s == nil {
		*l = LocalHist{}
		return
	}
	d := &s.hists[h]
	for i, n := range l.buckets {
		if n != 0 {
			d.buckets[i].Add(n)
		}
	}
	if l.sum != 0 {
		d.sum.Add(l.sum)
	}
	*l = LocalHist{}
}

// Reset zeroes every counter, histogram, and stage timer.
func (s *Sink) Reset() {
	if s == nil {
		return
	}
	for i := range s.counters {
		s.counters[i].Store(0)
	}
	for i := range s.hists {
		h := &s.hists[i]
		for j := range h.buckets {
			h.buckets[j].Store(0)
		}
		h.sum.Store(0)
	}
	for i := range s.stages {
		s.stages[i].count.Store(0)
		s.stages[i].totalNS.Store(0)
	}
}
