package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/trace"
)

// analyze-npb: cold corpus get → predict → comm matrix over four stored
// traces, with the corpus cache disabled.
var analyzeNPBJobs = []job{{"LU", 64}, {"CG", 256}, {"BT", 256}, {"SP", 256}}

type analyzeInput struct {
	job job
	res *cypress.Result
	enc []byte
	id  cypress.TraceID
}

// analyzeSetup compiles and traces every job with the default network
// parameters, then ingests the traces into a fresh corpus whose serving
// cache is disabled, so every request decodes.
func analyzeSetup(cfg config, dir string, compiles *[]float64) (*cypress.Corpus, []analyzeInput, error) {
	ins := make([]analyzeInput, len(analyzeNPBJobs))
	for i, j := range analyzeNPBJobs {
		j = j.shrink(cfg.tiny)
		src, err := j.source()
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		p, err := cypress.Compile(src)
		if err != nil {
			return nil, nil, fmt.Errorf("compile %v: %w", j, err)
		}
		*compiles = append(*compiles, ms(time.Since(t0)))
		res, err := p.Trace(j.procs, cypress.Options{})
		if err != nil {
			return nil, nil, fmt.Errorf("trace %v: %w", j, err)
		}
		var b bytes.Buffer
		if _, err := res.WriteTrace(&b, false); err != nil {
			return nil, nil, fmt.Errorf("encode %v: %w", j, err)
		}
		ins[i] = analyzeInput{job: j, res: res, enc: b.Bytes()}
	}
	c, err := cypress.OpenCorpus(dir, cypress.CorpusOptions{CacheBytes: -1})
	if err != nil {
		return nil, nil, err
	}
	for i := range ins {
		if ins[i].id, err = c.Ingest(ins[i].res); err != nil {
			c.Close()
			return nil, nil, fmt.Errorf("ingest %v: %w", ins[i].job, err)
		}
	}
	return c, ins, nil
}

// analyzeResult is what one request derived, kept to check that repeated
// requests agree.
type analyzeResult struct {
	totalNS float64
	volume  int64 // summed comm matrix
}

func analyzeRequest(c *cypress.Corpus, id cypress.TraceID, sp *spanRec) (analyzeResult, error) {
	g := sp.begin("corpus.get")
	res, release, err := c.Get(id)
	sp.end(g)
	if err != nil {
		return analyzeResult{}, err
	}
	defer release()
	p := sp.begin("simmpi.predict")
	pr, err := res.Predict()
	sp.end(p)
	if err != nil {
		return analyzeResult{}, err
	}
	m := sp.begin("replay.commmatrix")
	mat, err := res.CommMatrix()
	sp.end(m)
	if err != nil {
		return analyzeResult{}, err
	}
	out := analyzeResult{totalNS: pr.TotalNS}
	for _, row := range mat {
		for _, v := range row {
			out.volume += v
		}
	}
	return out, nil
}

func runAnalyzeNPB(cfg config) (*outcome, error) {
	o := &outcome{}
	rng := newRNG(cfg.seed, 2)
	var compiles, setups []float64
	var c *cypress.Corpus
	var ins []analyzeInput
	// Each set-up builds a corpus in a directory of its own. The run serves
	// the last one made before the timed phase and closes the others.
	var dirs []string
	defer func() { // after the deferred Closes below: defers run last-in first-out
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}()
	newCorpus := func() (*cypress.Corpus, []analyzeInput, error) {
		dir := filepath.Join(cfg.dir, fmt.Sprintf("analyze-corpus-%d", len(dirs)))
		dirs = append(dirs, dir)
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
		return analyzeSetup(cfg, dir, &compiles)
	}
	closeC := func() {
		if c != nil {
			c.Close()
			c = nil
		}
	}
	err := timeSetups(setupsBefore(setupReps), &setups, closeC, func() (err error) {
		c, ins, err = newCorpus()
		return err
	})
	if err != nil {
		closeC()
		return nil, err
	}
	defer c.Close()
	for _, in := range ins {
		o.inputs = append(o.inputs, fmt.Sprintf("%v default network, %d B encoded", in.job, len(in.enc)))
	}

	var sp *spanRec
	ls := &layerStats{sink: obs.New()}
	if cfg.trace {
		sp = newSpanRec()
	}
	// The request sequence is a seed-shuffled round-robin: every block of
	// len(ins) requests asks for each trace once.
	seen := make([]*analyzeResult, len(ins))
	untraced := map[string][]float64{}
	traced := map[string][]float64{}
	var order []int
	resetPeakRSS()
	l := newLoop(cfg.seconds, 2*len(ins))
	for ; l.more(); l.ops++ {
		if len(order) == 0 {
			order = rng.Perm(len(ins))
		}
		i := order[0]
		order = order[1:]
		in := ins[i]
		o.attempted++
		tracedReq := cfg.trace && l.ops%2 == 1
		var rsp *spanRec
		if tracedReq {
			rsp = sp
			ls.begin()
		}
		root := rsp.request("request.analyze")
		t0 := time.Now()
		out, err := analyzeRequest(c, in.id, rsp)
		d := time.Since(t0)
		rsp.end(root)
		if tracedReq {
			ls.end()
			traced[in.job.String()] = append(traced[in.job.String()], ms(d))
		} else if err == nil {
			untraced[in.job.String()] = append(untraced[in.job.String()], ms(d))
		}
		if err != nil {
			o.opErr(err, "analyze "+in.job.String())
			continue
		}
		if seen[i] == nil {
			seen[i] = &out
		} else if *seen[i] != out {
			o.opErr(fmt.Errorf("prediction %v differs from the first request's %v", out, *seen[i]), "analyze "+in.job.String())
		}
	}

	peak := peakRSSMB()
	var extra *cypress.Corpus
	closeExtra := func() {
		if extra != nil {
			extra.Close()
			extra = nil
		}
	}
	err = timeSetups(setupReps-setupsBefore(setupReps), &setups, closeExtra, func() (err error) {
		extra, _, err = newCorpus()
		return err
	})
	closeExtra()
	if err != nil {
		return nil, err
	}

	// Correctness pass, outside the timed region. Per-trace medians keep one
	// slow request from moving a run's figures.
	var events, medians, predErr []float64
	var samples int
	var encTotal float64
	for i, in := range ins {
		encTotal += float64(len(in.enc))
		ev, err := countEvents(in.res)
		o.check(err == nil, "%v: replay: %v", in.job, err)
		events = append(events, float64(ev))
		medians = append(medians, median(untraced[in.job.String()]))
		samples += len(untraced[in.job.String()])
		if seen[i] == nil {
			o.check(false, "%v: no request completed", in.job)
			continue
		}
		o.check(in.res.SimulatedNS > 0, "%v: simulated time is 0", in.job)
		predErr = append(predErr, 100*math.Abs(seen[i].totalNS-in.res.SimulatedNS)/in.res.SimulatedNS)
		got, err := c.GetBytes(in.id)
		o.check(err == nil && bytes.Equal(got, in.enc), "%v: GetBytes differs from the ingested encoding: %v", in.job, err)
		o.check(reencodes(in.enc), "%v: decode→encode changes the bytes", in.job)
	}
	st, err := c.Stats()
	o.check(err == nil, "corpus stats: %v", err)

	o.e2e = map[string]float64{
		"events_per_s":      frac(sum(events), sum(medians)/1e3),
		"op_p50_ms":         sum(medians) / float64(len(medians)),
		"peak_rss_mb":       peak,
		"compressed_bytes":  encTotal,
		"predict_error_pct": frac(sum(predErr), float64(len(predErr))),
	}
	o.samples = map[string]int{"op_p50_ms": samples}
	o.note("analyze_events_per_s", "events/s", o.e2e["events_per_s"])
	o.note("predict_error_pct", "%", o.e2e["predict_error_pct"])
	o.note("corpus_disk_bytes", "B", float64(st.DiskBytes))

	if cfg.trace {
		m := map[string]float64{}
		ls.fill(m)
		m["corpus.get_ms"] = sp.meanMS("corpus.get")
		m["simmpi.predict_ms"] = sp.meanMS("simmpi.predict")
		var predNS float64
		for _, d := range sp.durations("simmpi.predict") {
			predNS += float64(d)
		}
		m["simmpi.events_per_s"] = frac(float64(ls.sink.Value(obs.SimEventsProcessed)), predNS/float64(time.Second))
		m["replay.commmatrix_ms"] = sp.meanMS("replay.commmatrix")
		m["corpus.delta_runs"] = float64(st.DeltaRuns)
		m["corpus.full_runs"] = float64(st.FullRuns)
		m["corpus.stored_bytes"] = float64(st.StoredBytes)
		m["corpus.disk_bytes"] = float64(st.DiskBytes)
		m["bench.trace_overhead_pct"] = overheadPct(traced, untraced)
		o.layerRaw = m
		o.spans = sp
	}
	o.compileMS = compiles
	o.setups = setups
	return o, nil
}

// countEvents replays every rank of a trace and counts the events.
func countEvents(r *cypress.Result) (int, error) {
	var n int
	for rank := 0; rank < r.Merged.NumRanks; rank++ {
		if err := r.ReplayEvents(rank, func(*trace.Event) { n++ }); err != nil {
			return 0, err
		}
	}
	return n, nil
}
