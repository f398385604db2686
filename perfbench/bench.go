package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/mpisim"
	"repro/internal/npb"
	"repro/internal/obs"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// tiny shrinks every job to a handful of ranks and lowers the minimum
	// request counts; the self-tests use it.
	tiny bool
	// dir holds the corpus directories and the trace exports.
	dir string
	// mutateFetch, when set, is applied to every fetched encoding before it
	// is checked; the self-tests use it to inject corruption.
	mutateFetch func([]byte)
	// mutateQueryID, when set, maps the trace id of every timed query; the
	// self-tests use it to make queries fail.
	mutateQueryID func(cypress.TraceID) cypress.TraceID
}

// setupReps is how many times a run sets up; setup_s is the median. The
// trace-npb workload uses traceSetupReps.
const setupReps = 3

// setupsBefore is how many of n set-ups a run makes before its timed phase.
// The rest follow it, so setup_s samples the machine over the whole run, as
// the timed figures do, rather than over its first seconds only.
func setupsBefore(n int) int { return (n + 1) / 2 }

// timeSetups runs set-up n times and appends each duration in seconds to
// setups. Before each it calls reset, when given, untimed, and collects the
// garbage, so that no repetition pays for the one before.
func timeSetups(n int, setups *[]float64, reset func(), setup func() error) error {
	for range n {
		if reset != nil {
			reset()
		}
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return err
		}
		*setups = append(*setups, time.Since(t0).Seconds())
	}
	return nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is everything one run measured.
type outcome struct {
	attempted, failed int
	// e2e holds the workload's end-to-end figures (untraced requests only)
	// except setup_s, which main derives from setups.
	e2e map[string]float64
	// layerRaw holds the per-layer figures (traced requests only); nil when
	// the run was untraced. main adds cst.compile_ms and bench.failed_frac
	// and reports every other per-layer name the workload leaves out as 0.
	layerRaw map[string]float64
	// compileMS lists every full-size compile the run made, setups the
	// duration of each set-up in seconds; main reports their medians.
	compileMS, setups []float64
	// report holds the workload's own named figures for the text summary.
	report []reportLine
	// inputs describes the generated inputs, samples the sample count
	// behind each percentile.
	inputs  []string
	samples map[string]int
	spans   *spanRec
}

type reportLine struct {
	name, unit string
	value      float64
}

func (o *outcome) note(name, unit string, v float64) {
	o.report = append(o.report, reportLine{name, unit, v})
}

// check counts one attempted check and records it as failed unless ok.
func (o *outcome) check(ok bool, what string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+what+"\n", args...)
	}
}

// opErr records a failed timed operation (attempted is counted by the loop).
func (o *outcome) opErr(err error, what string) {
	o.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
}

// End-to-end and per-layer metric names with their units. Every workload
// reports every name; BENCHMARK.json lists the same set.
var e2eUnits = map[string]string{
	"setup_s":           "s",
	"peak_rss_mb":       "MB",
	"events_per_s":      "events/s",
	"op_p50_ms":         "ms",
	"compressed_bytes":  "B",
	"predict_error_pct": "%",
}

var layerUnits = map[string]string{
	"cst.compile_ms":            "ms",
	"interp_mpisim.untraced_s":  "s",
	"interp_mpisim.events":      "count",
	"interp_mpisim.alloc_mb":    "MB",
	"ctt.busy_s":                "s",
	"ctt.overhead_pct":          "%",
	"ctt.finish_ms":             "ms",
	"ctt.records":               "count",
	"ctt.fold_rate":             "ratio",
	"merge.all_ms":              "ms",
	"merge.encode_ms":           "ms",
	"merge.fp_fast_rate":        "ratio",
	"merge.entries_unmerged":    "count",
	"merge.select_skipped_frac": "ratio",
	"corpus.get_projected_ms":   "ms",
	"corpus.cache_hit_rate":     "ratio",
	"corpus.get_bytes_ms":       "ms",
	"corpus.ingest_ms":          "ms",
	"corpus.delta_runs":         "count",
	"corpus.full_runs":          "count",
	"corpus.stored_bytes":       "B",
	"corpus.disk_bytes":         "B",
	"corpus.get_ms":             "ms",
	"blockio.frames_encoded":    "count",
	"blockio.frames_decoded":    "count",
	"replay.rank_ms":            "ms",
	"replay.commmatrix_ms":      "ms",
	"replay.skeleton_hit_rate":  "ratio",
	"simmpi.predict_ms":         "ms",
	"simmpi.events_per_s":       "events/s",
	"simmpi.windows":            "count",
	"simmpi.barrier_stalls":     "count",
	"serve.query_p99_ms":        "ms",
	"serve.fetch_p50_ms":        "ms",
	"serve.ingest_p50_ms":       "ms",
	"go.alloc_mb":               "MB",
	"go.gc_cycles":              "count",
	"bench.trace_overhead_pct":  "%",
	"bench.failed_frac":         "ratio",
}

// job is one traced program: an NPB skeleton at a rank count.
type job struct {
	name  string
	procs int
}

func (j job) String() string { return fmt.Sprintf("%s-%d", j.name, j.procs) }

func (j job) source() (string, error) {
	w := npb.Get(j.name)
	if w == nil {
		return "", fmt.Errorf("unknown workload %s", j.name)
	}
	if !w.ValidProcs(j.procs) {
		return "", fmt.Errorf("%s does not support %d ranks", j.name, j.procs)
	}
	return w.Source(j.procs, npb.Paper), nil
}

// shrink maps a job onto its tiny self-test size: a sixteenth of the
// ranks, which every skeleton here still accepts.
func (j job) shrink(tiny bool) job {
	if tiny {
		j.procs /= 16
	}
	return j
}

// variantScales are the scale factors network variants apply to
// mpisim.DefaultParams' latency, per-message overhead and per-byte gap.
var variantScales = [numVariants]float64{0.92, 0.94, 0.96, 0.98, 1.00, 1.02, 1.04, 1.06}

const numVariants = 8

// variantParams is network variant k of numVariants. Each parameter walks
// the scales in its own order, so any two variants differ in all three
// parameters and every stored delta changes the same timing fields. The
// seed picks which variant a run gets, not how far the figures can drift.
func variantParams(k int) mpisim.Params {
	k %= numVariants
	p := mpisim.DefaultParams()
	p.LatencyNS *= variantScales[k]
	p.OverheadNS *= variantScales[(3*k+1)%numVariants]
	p.GapPerByteNS *= variantScales[(5*k+2)%numVariants]
	return p
}

func newRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// traceOptions builds the facade options for a job. Every worker count is
// left at the library default.
func traceOptions(p mpisim.Params) cypress.Options {
	return cypress.Options{Params: &p}
}

// loop is the closed-loop client: it issues the next request
// only after the previous one returns, until the deadline has passed and at
// least minOps requests ran.
type loop struct {
	start    time.Time
	deadline time.Time
	minOps   int
	ops      int
}

func newLoop(seconds float64, minOps int) *loop {
	now := time.Now()
	return &loop{start: now, deadline: now.Add(time.Duration(seconds * float64(time.Second))), minOps: minOps}
}

func (l *loop) more() bool {
	return l.ops < l.minOps || time.Now().Before(l.deadline)
}

// frac is the share of the run's duration already spent.
func (l *loop) frac() float64 {
	return float64(time.Since(l.start)) / float64(l.deadline.Sub(l.start))
}

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func frac(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// resetPeakRSS collects garbage, returns freed memory to the OS and resets
// the kernel's peak resident set size, so that peakRSSMB then reports the
// peak of what follows: the timed phase, not set-up.
func resetPeakRSS() {
	debug.FreeOSMemory()
	// Linux resets VmHWM when "5" is written to clear_refs; without it the
	// peak covers the whole process.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set size from /proc.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// memDelta measures heap allocation and GC cycles across a region.
type memDelta struct {
	alloc uint64
	gc    uint32
}

func readMem() memDelta {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memDelta{m.TotalAlloc, m.NumGC}
}

func (a memDelta) since() (allocMB float64, gcs int) {
	b := readMem()
	return float64(b.alloc-a.alloc) / (1 << 20), int(b.gc - a.gc)
}

// layerStats collects per-layer counters over traced requests: obs is
// installed around each traced request and removed afterwards, so untraced
// requests run with every sink disabled.
type layerStats struct {
	sink     *obs.Sink
	requests int
	alloc    float64
	gcs      int
	mem      memDelta
}

func (ls *layerStats) begin() {
	ls.mem = readMem()
	cypress.EnableObs(ls.sink)
}

func (ls *layerStats) end() {
	cypress.EnableObs(nil)
	a, g := ls.mem.since()
	ls.alloc += a
	ls.gcs += g
	ls.requests++
}

func (ls *layerStats) perReq(c obs.Counter) float64 {
	return frac(float64(ls.sink.Value(c)), float64(ls.requests))
}

// fill writes the counters every workload shares into m.
func (ls *layerStats) fill(m map[string]float64) {
	v := func(c obs.Counter) float64 { return float64(ls.sink.Value(c)) }
	m["go.alloc_mb"] = frac(ls.alloc, float64(ls.requests))
	m["go.gc_cycles"] = frac(float64(ls.gcs), float64(ls.requests))
	m["ctt.records"] = ls.perReq(obs.CompNewRecords)
	m["ctt.fold_rate"] = frac(v(obs.CompMergeHits)+v(obs.CompPeerPatternFolds)+v(obs.CompCycleFolds), v(obs.CompEvents))
	fpHits := v(obs.MergeFPRelHits) + v(obs.MergeFPAbsHits)
	m["merge.fp_fast_rate"] = frac(fpHits, fpHits+v(obs.MergeExhaustiveWalks))
	m["merge.entries_unmerged"] = ls.perReq(obs.MergeEntriesUnmerged)
	m["merge.select_skipped_frac"] = frac(v(obs.SelBytesSkipped), v(obs.SelBytesSkipped)+v(obs.SelBytesMaterialized))
	m["corpus.cache_hit_rate"] = frac(v(obs.CorpusCacheHits), v(obs.CorpusCacheHits)+v(obs.CorpusCacheMisses))
	m["blockio.frames_encoded"] = ls.perReq(obs.IOFramesEnc)
	m["blockio.frames_decoded"] = ls.perReq(obs.IOFramesDec)
	sk := v(obs.ReplayRankMemoHits) + v(obs.ReplayClassReuses)
	m["replay.skeleton_hit_rate"] = frac(sk, sk+v(obs.ReplaySkeletonBuilds))
	m["simmpi.windows"] = ls.perReq(obs.SimWindows)
	m["simmpi.barrier_stalls"] = ls.perReq(obs.SimBarrierStalls)
}

// overheadPct compares traced against untraced request latencies of the
// same kind: the medians per kind, weighted by how often each kind ran, as
// a percentage.
func overheadPct(traced, untraced map[string][]float64) float64 {
	var t, u float64
	for k, us := range untraced {
		ts := traced[k]
		if len(ts) == 0 || len(us) == 0 {
			continue
		}
		n := float64(len(ts) + len(us))
		t += n * median(ts)
		u += n * median(us)
	}
	return 100 * frac(t-u, u)
}
