package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/mpisim"
	"repro/internal/obs"
	"repro/internal/replay"
)

// serve-corpus: a mixed read/write request stream against a corpus holding
// three structural classes under several network variants each.
var (
	serveClasses = []job{{"MG", 256}, {"SP", 256}, {"CG", 256}}
	// serveNewClass is ingested during the timed phase and opens a class of
	// its own.
	serveNewClass = job{"MG", 128}
)

const (
	serveInitialVariants = 2   // stored per class in set-up
	serveFetchShare      = 0.1 // of requests; the rest are queries
	// serveCacheShare sizes the serving cache against the summed encodings
	// of the initial traces, so queries both hit and miss it.
	serveCacheShare = 0.4
)

type serveTrace struct {
	job    job
	params mpisim.Params
	res    *cypress.Result
	enc    []byte
	id     cypress.TraceID
}

type serveState struct {
	c       *cypress.Corpus
	stored  []*serveTrace
	pending []*serveTrace // ingested during the timed phase, in order
}

func traceVariant(j job, variant int, compiles *[]float64) (*serveTrace, error) {
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
	params := variantParams(variant)
	res, err := p.Trace(j.procs, traceOptions(params))
	if err != nil {
		return nil, fmt.Errorf("trace %v: %w", j, err)
	}
	var b bytes.Buffer
	if _, err := res.WriteTrace(&b, false); err != nil {
		return nil, fmt.Errorf("encode %v: %w", j, err)
	}
	return &serveTrace{job: j, params: params, res: res, enc: b.Bytes()}, nil
}

// serveSetup traces every run, opens the corpus and ingests the initial
// runs. The runs left pending are one more network variant of each class
// (delta ingests) and one run of a new class.
func serveSetup(cfg config, dir string, variant []int, compiles *[]float64) (*serveState, error) {
	st := &serveState{}
	var cacheBytes int64
	for ci, j := range serveClasses {
		j = j.shrink(cfg.tiny)
		for v := 0; v <= serveInitialVariants; v++ {
			t, err := traceVariant(j, variant[(ci*(serveInitialVariants+1)+v)%len(variant)], compiles)
			if err != nil {
				return nil, err
			}
			if v < serveInitialVariants {
				st.stored = append(st.stored, t)
				cacheBytes += int64(len(t.enc))
			} else {
				st.pending = append(st.pending, t)
			}
		}
	}
	t, err := traceVariant(serveNewClass.shrink(cfg.tiny), variant[len(variant)-1], compiles)
	if err != nil {
		return nil, err
	}
	st.pending = append(st.pending, t)

	st.c, err = cypress.OpenCorpus(dir, cypress.CorpusOptions{CacheBytes: int64(float64(cacheBytes) * serveCacheShare)})
	if err != nil {
		return nil, err
	}
	for _, t := range st.stored {
		if t.id, err = st.c.Ingest(t.res); err != nil {
			st.c.Close()
			return nil, fmt.Errorf("ingest %v: %w", t.job, err)
		}
	}
	return st, nil
}

func serveQuery(c *cypress.Corpus, id cypress.TraceID, rank int, sp *spanRec) (int, error) {
	g := sp.begin("corpus.get_projected")
	res, release, err := c.GetProjected(id, rank)
	sp.end(g)
	if err != nil {
		return 0, err
	}
	defer release()
	r := sp.begin("replay.rank")
	seq, err := res.Replay(rank)
	sp.end(r)
	return len(seq), err
}

func runServeCorpus(cfg config) (*outcome, error) {
	o := &outcome{}
	rng := newRNG(cfg.seed, 3)
	variant := rng.Perm(numVariants)
	var compiles, setups []float64
	var st *serveState
	// Each set-up builds a corpus in a directory of its own. The run serves
	// the last one made before the timed phase and closes the others.
	var dirs []string
	defer func() { // after the deferred Closes below: defers run last-in first-out
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}()
	newState := func() (*serveState, error) {
		dir := filepath.Join(cfg.dir, fmt.Sprintf("serve-corpus-%d", len(dirs)))
		dirs = append(dirs, dir)
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		return serveSetup(cfg, dir, variant, &compiles)
	}
	closeSt := func() {
		if st != nil {
			st.c.Close()
			st = nil
		}
	}
	err := timeSetups(setupsBefore(setupReps), &setups, closeSt, func() (err error) {
		st, err = newState()
		return err
	})
	if err != nil {
		closeSt()
		return nil, err
	}
	c := st.c
	defer c.Close()
	for _, t := range append(append([]*serveTrace(nil), st.stored...), st.pending...) {
		o.inputs = append(o.inputs, fmt.Sprintf("%v latency=%.0fns overhead=%.0fns gap=%.3fns/B, %d B encoded",
			t.job, t.params.LatencyNS, t.params.OverheadNS, t.params.GapPerByteNS, len(t.enc)))
	}

	// Prediction accuracy of one stored run per class, checked before the
	// timed phase so that the stored runs' traces need not stay in memory
	// through it: a server holds only its corpus.
	var predErr []float64
	for i, t := range st.stored {
		if i%serveInitialVariants == 0 {
			pr, err := t.res.Predict()
			o.check(err == nil && t.res.SimulatedNS > 0, "%v: predict: %v", t.job, err)
			if err == nil && t.res.SimulatedNS > 0 {
				predErr = append(predErr, 100*math.Abs(pr.TotalNS-t.res.SimulatedNS)/t.res.SimulatedNS)
			}
		}
		t.res = nil
	}

	var sp *spanRec
	ls := &layerStats{sink: obs.New()}
	if cfg.trace {
		sp = newSpanRec()
	}
	minQueries := 1000
	if cfg.tiny {
		minQueries = 50
	}
	untraced := map[string][]float64{}
	traced := map[string][]float64{}
	var queries, fetches, ingests []float64
	// untracedQueries counts untraced query attempts, failed ones too, so a
	// program whose queries fail still ends the run.
	var untracedQueries int
	kindCount := map[string]int{}
	// Per structural class: untraced query latencies and replayed events.
	classLat := map[string][]float64{}
	classEvents := map[string]int{}
	pending := st.pending
	resetPeakRSS()
	l := newLoop(cfg.seconds, 0)
	for ; l.more() || untracedQueries < minQueries || len(pending) > 0; l.ops++ {
		o.attempted++
		// Pending ingests fall due at evenly spaced points of the run.
		due := len(pending) > 0 && l.frac() >= float64(len(st.pending)-len(pending)+1)/float64(len(st.pending)+1)
		var kind string
		var t *serveTrace
		var rank int
		switch {
		case due:
			kind, t = "ingest", pending[0]
		case rng.Float64() < serveFetchShare:
			kind, t = "fetch", st.stored[rng.IntN(len(st.stored))]
		default:
			kind, t = "query", st.stored[rng.IntN(len(st.stored))]
			rank = rng.IntN(t.job.procs)
		}
		// In a traced run every second request of each kind is traced, so
		// the last ingest, the one that opens a new class, always is.
		tracedReq := cfg.trace && kindCount[kind]%2 == 1
		kindCount[kind]++
		var rsp *spanRec
		if tracedReq {
			rsp = sp
			ls.begin()
		}
		var err error
		var events int
		var fetched []byte
		var t0 time.Time
		switch kind {
		case "ingest":
			root := rsp.request("request.ingest")
			g := rsp.begin("corpus.ingest")
			t0 = time.Now()
			t.id, err = c.Ingest(t.res)
			rsp.end(g)
			rsp.end(root)
			t.res = nil
		case "fetch":
			root := rsp.request("request.fetch")
			g := rsp.begin("corpus.get_bytes")
			t0 = time.Now()
			fetched, err = c.GetBytes(t.id)
			rsp.end(g)
			rsp.end(root)
		case "query":
			id := t.id
			if cfg.mutateQueryID != nil {
				id = cfg.mutateQueryID(id)
			}
			if !tracedReq {
				untracedQueries++
			}
			root := rsp.request("request.query")
			t0 = time.Now()
			events, err = serveQuery(c, id, rank, rsp)
			rsp.end(root)
		}
		d := time.Since(t0)
		if tracedReq {
			ls.end()
			traced[kind] = append(traced[kind], ms(d))
		} else if err == nil {
			untraced[kind] = append(untraced[kind], ms(d))
			switch kind {
			case "query":
				queries = append(queries, ms(d))
				classLat[t.job.String()] = append(classLat[t.job.String()], ms(d))
				classEvents[t.job.String()] += events
			case "fetch":
				fetches = append(fetches, ms(d))
			case "ingest":
				ingests = append(ingests, ms(d))
			}
		}
		if kind == "ingest" {
			pending = pending[1:]
			if err == nil {
				st.stored = append(st.stored, t)
			}
		}
		if err != nil {
			o.opErr(err, kind+" "+t.job.String())
			continue
		}
		if kind == "fetch" {
			if cfg.mutateFetch != nil {
				fetched = bytes.Clone(fetched)
				cfg.mutateFetch(fetched)
			}
			if !bytes.Equal(fetched, t.enc) {
				o.opErr(fmt.Errorf("fetched bytes differ from the ingested encoding"), "fetch "+t.job.String())
			}
		}
	}
	peak := peakRSSMB()
	var extra *serveState
	closeExtra := func() {
		if extra != nil {
			extra.c.Close()
			extra = nil
		}
	}
	err = timeSetups(setupReps-setupsBefore(setupReps), &setups, closeExtra, func() (err error) {
		extra, err = newState()
		return err
	})
	closeExtra()
	if err != nil {
		return nil, err
	}
	stats, err := c.Stats()
	if err != nil {
		return nil, fmt.Errorf("corpus stats: %w", err)
	}

	// Correctness pass, outside the timed region.
	for _, t := range st.stored {
		got, err := c.GetBytes(t.id)
		o.check(err == nil && bytes.Equal(got, t.enc), "%v: GetBytes differs from the ingested encoding: %v", t.job, err)
		o.check(reencodes(t.enc), "%v: decode→encode changes the bytes", t.job)
	}
	o.check(len(c.Hashes()) == len(st.stored), "corpus holds %d traces, want %d", len(c.Hashes()), len(st.stored))
	o.check(stats.Classes == len(serveClasses)+1 && stats.DeltaRuns > 0,
		"corpus has %d classes and %d delta runs", stats.Classes, stats.DeltaRuns)
	for k := 0; k < 8; k++ {
		t := st.stored[rng.IntN(len(st.stored))]
		rank := rng.IntN(t.job.procs)
		err := projectedMatchesFull(c, t, rank)
		o.check(err == nil, "%v rank %d: projected replay differs from the full one: %v", t.job, rank, err)
	}
	// Medians per class, weighted by the class's share of the queries, keep
	// one slow query from moving a run's figures.
	var weighted, events float64
	for k, lat := range classLat {
		weighted += float64(len(lat)) * median(lat)
		events += float64(classEvents[k])
	}
	o.e2e = map[string]float64{
		"events_per_s":      frac(events, weighted/1e3),
		"op_p50_ms":         frac(weighted, float64(len(queries))),
		"peak_rss_mb":       peak,
		"compressed_bytes":  float64(stats.DiskBytes),
		"predict_error_pct": frac(sum(predErr), float64(len(predErr))),
	}
	o.samples = map[string]int{"op_p50_ms": len(queries), "query_p99_ms": len(queries),
		"fetch_p50_ms": len(fetches), "ingest_p50_ms": len(ingests)}
	o.note("query_p50_ms", "ms", median(queries))
	o.note("query_p99_ms", "ms", quantile(queries, 0.99))
	o.note("fetch_p50_ms", "ms", median(fetches))
	o.note("ingest_p50_ms", "ms", median(ingests))
	o.note("corpus_disk_bytes", "B", float64(stats.DiskBytes))

	if cfg.trace {
		// The cache is sized below the data so that queries both hit and
		// miss it; a run where they do not measures another workload.
		hits, misses := ls.sink.Value(obs.CorpusCacheHits), ls.sink.Value(obs.CorpusCacheMisses)
		o.check(hits > 0 && misses > 0, "serving cache saw %d hits and %d misses, want both", hits, misses)
		m := map[string]float64{}
		ls.fill(m)
		m["corpus.get_projected_ms"] = sp.meanMS("corpus.get_projected")
		m["corpus.get_bytes_ms"] = sp.meanMS("corpus.get_bytes")
		m["corpus.ingest_ms"] = sp.meanMS("corpus.ingest")
		m["replay.rank_ms"] = sp.meanMS("replay.rank")
		m["corpus.delta_runs"] = float64(stats.DeltaRuns)
		m["corpus.full_runs"] = float64(stats.FullRuns)
		m["corpus.stored_bytes"] = float64(stats.StoredBytes)
		m["corpus.disk_bytes"] = float64(stats.DiskBytes)
		m["serve.query_p99_ms"] = quantile(queries, 0.99)
		m["serve.fetch_p50_ms"] = median(fetches)
		m["serve.ingest_p50_ms"] = median(ingests)
		m["bench.trace_overhead_pct"] = overheadPct(traced, untraced)
		o.layerRaw = m
		o.spans = sp
	}
	o.compileMS = compiles
	o.setups = setups
	return o, nil
}

// projectedMatchesFull compares a rank-projected replay with the replay of
// the fully decoded trace.
func projectedMatchesFull(c *cypress.Corpus, t *serveTrace, rank int) error {
	pres, prel, err := c.GetProjected(t.id, rank)
	if err != nil {
		return err
	}
	defer prel()
	got, err := pres.Replay(rank)
	if err != nil {
		return err
	}
	fres, frel, err := c.Get(t.id)
	if err != nil {
		return err
	}
	defer frel()
	want, err := fres.Replay(rank)
	if err != nil {
		return err
	}
	return replay.Equivalent(want, got)
}
