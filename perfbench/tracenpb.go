package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"repro"
	"repro/internal/ctt"
	"repro/internal/interp"
	"repro/internal/merge"
	"repro/internal/mpisim"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/trace"
)

// trace-npb: compile → trace → encode, round-robin over three jobs.
var traceNPBJobs = []job{{"MG", 1024}, {"SP", 256}, {"CG", 256}}

type traceInput struct {
	job    job
	src    string
	params mpisim.Params
	prog   *cypress.Program // compiled in set-up; used by the Fig. 16 baseline
}

// traceSetupReps is how many times trace-npb sets up. Its set-up takes
// ~0.3 s, short enough for one slow repetition to move a median of
// setupReps, so it repeats more often than the other workloads'.
const traceSetupReps = 9

// traceSetup generates the inputs, compiles them and warms the pipeline up
// with a 64-rank trace of each skeleton.
func traceSetup(cfg config, variant []int, compiles *[]float64) ([]traceInput, error) {
	ins := make([]traceInput, len(traceNPBJobs))
	for i, j := range traceNPBJobs {
		j = j.shrink(cfg.tiny)
		src, err := j.source()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		p, err := cypress.Compile(src)
		if err != nil {
			return nil, fmt.Errorf("compile %v: %w", j, err)
		}
		*compiles = append(*compiles, ms(time.Since(t0)))
		ins[i] = traceInput{job: j, src: src, params: variantParams(variant[i]), prog: p}

		warm := job{j.name, 64}
		wsrc, err := warm.source()
		if err != nil {
			return nil, err
		}
		wp, err := cypress.Compile(wsrc)
		if err != nil {
			return nil, fmt.Errorf("compile %v: %w", warm, err)
		}
		wr, err := wp.Trace(warm.procs, traceOptions(ins[i].params))
		if err != nil {
			return nil, fmt.Errorf("warm-up trace %v: %w", warm, err)
		}
		if _, err := wr.WriteTrace(&bytes.Buffer{}, false); err != nil {
			return nil, fmt.Errorf("warm-up encode %v: %w", warm, err)
		}
	}
	return ins, nil
}

// facadeTrace is the untraced request: the path users run.
func facadeTrace(in traceInput, buf *bytes.Buffer) error {
	p, err := cypress.Compile(in.src)
	if err != nil {
		return err
	}
	res, err := p.Trace(in.job.procs, traceOptions(in.params))
	if err != nil {
		return err
	}
	buf.Reset()
	_, err = res.WriteTrace(buf, false)
	return err
}

// decomposed is Program.Trace rebuilt from the layers' public functions so
// that each layer's call can carry its own span. With timed set, every
// compressor sits behind a sampling timing wrapper; without it the
// compressors are the sinks, as in Program.Trace, so that the traced
// execution's time holds no cost of the benchmark's.
type decomposed struct {
	sp    *spanRec
	sink  *obs.Sink
	timed bool
	// busyNS is the estimated time spent inside compressor calls, summed
	// over ranks (timed runs only), and execNS the wall time of the traced
	// execution, both of the last run.
	busyNS, execNS float64
}

func (d *decomposed) run(in traceInput, buf *bytes.Buffer) error {
	c := d.sp.begin("cst.compile")
	p, err := cypress.Compile(in.src)
	d.sp.end(c)
	if err != nil {
		return err
	}
	n := in.job.procs
	var opts cypress.Options
	cs := d.sp.begin("ctt.new_compressors")
	comps := make([]*ctt.Compressor, n)
	sinks := make([]trace.Sink, n)
	var timed []*timedSink
	for i := range comps {
		comps[i] = ctt.NewCompressor(p.CST, i, opts.TimeMode)
		comps[i].SetObs(d.sink)
		sinks[i] = comps[i]
		if d.timed {
			t := &timedSink{c: comps[i], state: uint64(i)*0x9e3779b97f4a7c15 + 1}
			timed = append(timed, t)
			sinks[i] = t
		}
	}
	d.sp.end(cs)
	x := d.sp.begin("interp_mpisim.traced_exec")
	t0 := time.Now()
	_, err = mpisim.Run(n, in.params, sinks, func(r *mpisim.Rank) { interp.Execute(p.AST, r) })
	d.execNS = float64(time.Since(t0))
	d.sp.end(x)
	if err != nil {
		return err
	}
	d.busyNS = 0
	for _, t := range timed {
		d.busyNS += float64(t.busy) * sampleEvery
	}
	f := d.sp.begin("ctt.finish")
	ctts := make([]*ctt.RankCTT, n)
	for i, c := range comps {
		ctts[i] = c.Finish()
	}
	d.sp.end(f)
	mg := d.sp.begin("merge.all")
	m, err := merge.All(ctts, 0)
	d.sp.end(mg)
	if err != nil {
		return err
	}
	e := d.sp.begin("merge.encode")
	buf.Reset()
	_, err = m.Encode(buf)
	d.sp.end(e)
	return err
}

// sampleEvery is the inverse sampling rate of the compressor timing
// wrapper: timing one call in eight keeps the wrapper's own clock reads from
// dominating the calls it measures, and summing the sampled durations times
// eight estimates the total without bias.
const sampleEvery = 8

// timedSink forwards to a compressor and times a pseudo-random eighth of
// the calls. Each rank's sink is used by that rank's goroutine only.
type timedSink struct {
	c     *ctt.Compressor
	state uint64
	busy  time.Duration
}

func (t *timedSink) sampled() bool {
	t.state ^= t.state << 13
	t.state ^= t.state >> 7
	t.state ^= t.state << 17
	return t.state%sampleEvery == 0
}

func (t *timedSink) timed(f func()) {
	if !t.sampled() {
		f()
		return
	}
	t0 := time.Now()
	f()
	t.busy += time.Since(t0)
}

func (t *timedSink) LoopEnter(s int32)           { t.timed(func() { t.c.LoopEnter(s) }) }
func (t *timedSink) LoopIter(s int32)            { t.timed(func() { t.c.LoopIter(s) }) }
func (t *timedSink) BranchEnter(s int32, a int8) { t.timed(func() { t.c.BranchEnter(s, a) }) }
func (t *timedSink) BranchSkip(s int32)          { t.timed(func() { t.c.BranchSkip(s) }) }
func (t *timedSink) CallEnter(s int32)           { t.timed(func() { t.c.CallEnter(s) }) }
func (t *timedSink) StructExit()                 { t.timed(t.c.StructExit) }
func (t *timedSink) CommSite(s int32)            { t.timed(func() { t.c.CommSite(s) }) }
func (t *timedSink) Event(e *trace.Event)        { t.timed(func() { t.c.Event(e) }) }
func (t *timedSink) Finalize()                   { t.timed(t.c.Finalize) }

// untracedExec is the paper's Fig. 16 baseline: the program run by the MPI
// runtime with every rank's sink discarding its calls.
func untracedExec(in traceInput) error {
	sinks := make([]trace.Sink, in.job.procs)
	for i := range sinks {
		sinks[i] = trace.NopSink{}
	}
	_, err := mpisim.Run(in.job.procs, in.params, sinks, func(r *mpisim.Rank) { interp.Execute(in.prog.AST, r) })
	return err
}

func runTraceNPB(cfg config) (*outcome, error) {
	o := &outcome{}
	rng := newRNG(cfg.seed, 1)
	variant := rng.Perm(numVariants)
	var compiles, setups []float64
	var ins []traceInput
	err := timeSetups(setupsBefore(traceSetupReps), &setups, nil, func() (err error) {
		ins, err = traceSetup(cfg, variant, &compiles)
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, in := range ins {
		o.inputs = append(o.inputs, fmt.Sprintf("%v latency=%.0fns overhead=%.0fns gap=%.3fns/B",
			in.job, in.params.LatencyNS, in.params.OverheadNS, in.params.GapPerByteNS))
	}

	// Timed phase. A request is one job; a round is one request per job.
	// In a traced run requests alternate untraced/traced, so both kinds
	// meet the same heap and caches.
	var sp *spanRec
	ls := &layerStats{sink: obs.New()}
	if cfg.trace {
		sp = newSpanRec()
	}
	first := make([][]byte, len(ins))  // facade encoding per job
	decomp := make([][]byte, len(ins)) // decomposed encoding per job
	untraced := map[string][]float64{}
	traced := map[string][]float64{}
	var busy, base, allocs []float64
	// plainBase and plainExec pair the baseline with the traced execution
	// of the traced requests whose compressors run without the timing
	// wrapper; ctt.overhead_pct compares them.
	var plainBase, plainExec float64
	tracedRuns := make([]int, len(ins))
	minRounds := 1
	if cfg.trace {
		// Traced requests alternate per job between plain and timed
		// compressors; four rounds give every job one of each.
		minRounds = 4
	}
	var buf bytes.Buffer
	resetPeakRSS()
	l := newLoop(cfg.seconds, minRounds)
	for ; l.more(); l.ops++ {
		for j, in := range ins {
			o.attempted++
			k := l.ops*len(ins) + j
			if !cfg.trace || k%2 == 0 {
				t0 := time.Now()
				err := facadeTrace(in, &buf)
				d := time.Since(t0)
				if err != nil {
					o.opErr(err, "trace "+in.job.String())
					continue
				}
				untraced[in.job.String()] = append(untraced[in.job.String()], ms(d))
				if first[j] == nil {
					first[j] = bytes.Clone(buf.Bytes())
				} else if !bytes.Equal(first[j], buf.Bytes()) {
					o.opErr(fmt.Errorf("encoding differs from the first round"), "trace "+in.job.String())
				}
				continue
			}
			mem := readMem()
			b := sp.begin("baseline.untraced_exec")
			t0 := time.Now()
			err := untracedExec(in)
			bd := time.Since(t0)
			sp.end(b)
			if err != nil {
				o.opErr(err, "untraced exec "+in.job.String())
				continue
			}
			a, _ := mem.since()
			allocs = append(allocs, a)
			base = append(base, float64(bd))

			d := &decomposed{sp: sp, sink: ls.sink, timed: tracedRuns[j]%2 == 1}
			tracedRuns[j]++
			ls.begin()
			root := sp.request("request.trace_job")
			t0 = time.Now()
			err = d.run(in, &buf)
			rd := time.Since(t0)
			sp.end(root)
			ls.end()
			if err != nil {
				o.opErr(err, "decomposed trace "+in.job.String())
				continue
			}
			traced[in.job.String()] = append(traced[in.job.String()], ms(rd))
			if d.timed {
				busy = append(busy, d.busyNS)
			} else {
				plainBase += float64(bd)
				plainExec += d.execNS
			}
			if decomp[j] == nil {
				decomp[j] = bytes.Clone(buf.Bytes())
			} else if !bytes.Equal(decomp[j], buf.Bytes()) {
				o.opErr(fmt.Errorf("encoding differs from the first traced round"), "decomposed trace "+in.job.String())
			}
		}
	}

	peak := peakRSSMB()
	err = timeSetups(traceSetupReps-setupsBefore(traceSetupReps), &setups, nil, func() error {
		_, err := traceSetup(cfg, variant, &compiles)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Correctness pass, outside the timed region. Medians per job keep one
	// slow request from moving a run's figures.
	var events, medians, predErr []float64
	var samples int
	for j, in := range ins {
		if first[j] == nil {
			o.check(false, "%v: no untraced request completed", in.job)
			continue
		}
		res, err := in.prog.Trace(in.job.procs, cypress.Options{Params: &ins[j].params, KeepRaw: true})
		if err != nil {
			o.check(false, "%v: KeepRaw trace: %v", in.job, err)
			continue
		}
		var ev int
		for _, r := range res.Raw {
			ev += len(r)
		}
		events = append(events, float64(ev))
		medians = append(medians, median(untraced[in.job.String()]))
		samples += len(untraced[in.job.String()])
		var kb bytes.Buffer
		_, err = res.WriteTrace(&kb, false)
		o.check(err == nil && bytes.Equal(kb.Bytes(), first[j]), "%v: KeepRaw trace encodes differently", in.job)
		n := in.job.procs
		for _, r := range []int{0, n - 1, rng.IntN(n), rng.IntN(n)} {
			seq, err := res.Replay(r)
			if err == nil {
				err = replay.Equivalent(res.Raw[r], seq)
			}
			o.check(err == nil, "%v rank %d: replay differs from the raw stream: %v", in.job, r, err)
		}
		pr, err := res.Predict()
		o.check(err == nil && res.SimulatedNS > 0, "%v: predict: %v", in.job, err)
		if err == nil && res.SimulatedNS > 0 {
			predErr = append(predErr, 100*math.Abs(pr.TotalNS-res.SimulatedNS)/res.SimulatedNS)
		}

		if cfg.trace {
			o.check(bytes.Equal(decomp[j], first[j]), "%v: decomposed trace encodes differently from WriteTrace", in.job)
		}
		o.check(reencodes(first[j]), "%v: decode→encode changes the bytes", in.job)
	}

	var total float64
	for _, f := range first {
		total += float64(len(f))
	}
	o.e2e = map[string]float64{
		"events_per_s":      frac(sum(events), sum(medians)/1e3),
		"op_p50_ms":         sum(medians) / float64(len(medians)),
		"peak_rss_mb":       peak,
		"compressed_bytes":  total,
		"predict_error_pct": frac(sum(predErr), float64(len(predErr))),
	}
	o.samples = map[string]int{"op_p50_ms": samples}
	o.note("trace_events_per_s", "events/s", o.e2e["events_per_s"])
	o.note("compressed_bytes", "B", total)

	if cfg.trace {
		m := map[string]float64{}
		ls.fill(m)
		m["interp_mpisim.untraced_s"] = frac(sum(base), float64(len(base))) / float64(time.Second)
		m["interp_mpisim.events"] = ls.perReq(obs.CompEvents)
		m["interp_mpisim.alloc_mb"] = frac(sum(allocs), float64(len(allocs)))
		m["ctt.busy_s"] = frac(sum(busy), float64(len(busy))) / float64(time.Second)
		m["ctt.overhead_pct"] = 100 * frac(plainExec-plainBase, plainBase)
		m["ctt.finish_ms"] = sp.meanMS("ctt.finish")
		m["merge.all_ms"] = sp.meanMS("merge.all")
		m["merge.encode_ms"] = sp.meanMS("merge.encode")
		for _, d := range sp.durations("cst.compile") {
			compiles = append(compiles, ms(d))
		}
		m["bench.trace_overhead_pct"] = overheadPct(traced, untraced)
		o.layerRaw = m
		o.spans = sp
	}
	o.compileMS = compiles
	o.setups = setups
	return o, nil
}

// reencodes reports whether the encoding's decode→encode normal form is a
// fixed point: re-encoding the decoded normal form gives identical bytes.
// The first pass may change the bytes, because the v1 format keeps one
// timing moment fewer than the in-memory tree.
func reencodes(enc []byte) bool {
	norm, err := decodeEncode(enc)
	if err != nil {
		return false
	}
	again, err := decodeEncode(norm)
	return err == nil && bytes.Equal(again, norm)
}

func decodeEncode(enc []byte) ([]byte, error) {
	m, err := cypress.ReadTrace(bytes.NewReader(enc))
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	_, err = m.Encode(&b)
	return b.Bytes(), err
}
