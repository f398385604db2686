// Command cypressreplay decompresses a CYPRESS trace file (paper Section V):
// it can print one rank's (or every rank's) exact event sequence, the job's
// communication matrix, or feed the decompressed traces to the LogGP
// simulator for a performance prediction.
//
// Usage:
//
//	cypressreplay -rank 3 run.cyp          # print rank 3's event sequence
//	cypressreplay -rank all run.cyp        # print every rank's sequence
//	cypressreplay -matrix run.cyp          # communication volume matrix
//	cypressreplay -predict run.cyp         # LogGP performance prediction
//	cypressreplay -stream -par 8 ...       # streaming replay, 8-way parallel
//
// -stream routes every mode through the streaming replayer (resolved views +
// shared replay skeletons, no full per-rank materialization); -par N bounds
// every parallel phase (0 = GOMAXPROCS): the CYPB inflate pipeline of the
// trace decode, the rank fan-out of the -stream replay modes, and skeleton
// preparation for -predict -stream. The LogGP simulation itself is one
// sequential sweep. The printed output and the predicted times are identical
// at every -par value. Trace files in any container — raw CYPR, gzip, or the
// CYPB block container — are sniffed automatically.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strconv"

	cypress "repro"
	"repro/internal/merge"
	"repro/internal/mpisim"
	"repro/internal/obs"
	ftrace "repro/internal/obs/trace"
	"repro/internal/replay"
	"repro/internal/simmpi"
	"repro/internal/trace"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "cypressreplay:", err)
	os.Exit(1)
}

func main() {
	rankFlag := flag.String("rank", "", "print this rank's decompressed events, or \"all\" for every rank")
	matrix := flag.Bool("matrix", false, "print the communication volume matrix")
	predict := flag.Bool("predict", false, "run the LogGP performance prediction")
	stream := flag.Bool("stream", false, "use the streaming replayer (shared skeletons, no materialization)")
	par := flag.Int("par", 1, "worker bound for every parallel phase (0 = GOMAXPROCS): CYPB inflate pipelining, -stream rank fan-out, and -predict -stream skeleton preparation; results are identical at every value")
	limit := flag.Int("limit", 50, "max events to print per rank (0 = all)")
	stats := flag.Bool("stats", false, "print the pipeline observability report to stderr at exit")
	traceFile := flag.String("trace", "", "capture a flight-recorder timeline of the run and write Chrome trace-event JSON to this file (load in Perfetto)")
	debugAddr := flag.String("debug.addr", "", "serve pprof/expvar/obs on this address (e.g. localhost:6060)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cypressreplay [flags] trace.cyp")
		os.Exit(2)
	}
	var rec *ftrace.Recorder
	if *traceFile != "" {
		rec = ftrace.New(0)
		cypress.EnableTrace(rec)
		defer writeTraceFile(rec, *traceFile)
	}
	if *stats || *debugAddr != "" {
		sink := obs.New()
		cypress.EnableObs(sink)
		if *debugAddr != "" {
			srv, err := obs.ServeDebugTrace(*debugAddr, sink, rec)
			if err != nil {
				fail(err)
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "cypressreplay: debug server on http://%s/debug/pprof/\n", srv.Addr)
		}
		if *stats {
			defer func() {
				fmt.Fprintln(os.Stderr)
				sink.Report().WriteText(os.Stderr)
			}()
		}
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	// A numeric -rank is parsed before the decode so the single-rank query can
	// take the rank-projected selective path: only that rank's timing payloads
	// are materialized, and serving cost scales with the slice served rather
	// than the trace size.
	rank := -1
	if *rankFlag != "" && *rankFlag != "all" {
		r, err := strconv.Atoi(*rankFlag)
		if err != nil || r < 0 {
			fmt.Fprintf(os.Stderr, "cypressreplay: -rank wants a rank number or \"all\", got %q\n", *rankFlag)
			os.Exit(2)
		}
		rank = r
	}
	var m *merge.Merged
	if rank >= 0 {
		m, err = cypress.ReadTraceProjected(data, *par, rank)
	} else {
		m, err = cypress.ReadTracePar(bytes.NewReader(data), *par)
	}
	if err != nil {
		fail(err)
	}
	fmt.Printf("trace: ranks=%d events=%d cst-vertices=%d\n",
		m.NumRanks, m.EventCount, m.Tree.NumVertices())

	switch {
	case *rankFlag != "":
		if *rankFlag == "all" {
			printAll(m, *stream, *par, *limit)
			return
		}
		if rank >= m.NumRanks {
			fmt.Fprintf(os.Stderr, "cypressreplay: rank %d out of range [0,%d)\n", rank, m.NumRanks)
			os.Exit(2)
		}
		var buf bytes.Buffer
		if err := printRank(&buf, m, *stream, rank, *limit); err != nil {
			fail(err)
		}
		os.Stdout.Write(buf.Bytes())
	case *matrix:
		vol, err := commMatrix(m, *stream, *par)
		if err != nil {
			fail(err)
		}
		for r := 0; r < m.NumRanks; r++ {
			for c := 0; c < m.NumRanks; c++ {
				if vol[r][c] > 0 {
					fmt.Printf("  %d -> %d: %d bytes\n", r, c, vol[r][c])
				}
			}
		}
	case *predict:
		res, err := predictRun(m, *stream, *par)
		if err != nil {
			fail(err)
		}
		fmt.Printf("predicted execution time: %.3fms (communication %.1f%%)\n",
			res.TotalNS/1e6, 100*res.CommFraction())
	default:
		fmt.Fprintln(os.Stderr, "cypressreplay: pick one of -rank, -matrix, -predict")
		os.Exit(2)
	}
}

// printRank formats one rank's first -limit events into w.
func printRank(w *bytes.Buffer, m *merge.Merged, stream bool, rank, limit int) error {
	printed := 0
	emit := func(e *trace.Event) {
		if limit > 0 && printed >= limit {
			return
		}
		fmt.Fprintf(w, "  %6d: %s dur=%.0fns\n", printed, e.String(), e.DurationNS)
		printed++
	}
	if stream {
		return merge.NewStreamer(m).Replay(rank, emit)
	}
	return replay.Events(m.ForRank(rank), rank, emit)
}

// printAll prints every rank's sequence in rank order. Under -stream with
// parallelism, ranks replay concurrently into per-rank buffers (events of one
// rank arrive in order on one goroutine) and print in order afterwards.
func printAll(m *merge.Merged, stream bool, par, limit int) {
	bufs := make([]bytes.Buffer, m.NumRanks)
	if stream {
		s := merge.NewStreamer(m)
		printed := make([]int, m.NumRanks)
		err := s.ReplayAll(par, func(rank int, e *trace.Event) {
			if limit > 0 && printed[rank] >= limit {
				return
			}
			fmt.Fprintf(&bufs[rank], "  %6d: %s dur=%.0fns\n", printed[rank], e.String(), e.DurationNS)
			printed[rank]++
		})
		if err != nil {
			fail(err)
		}
	} else {
		for rank := 0; rank < m.NumRanks; rank++ {
			if err := printRank(&bufs[rank], m, false, rank, limit); err != nil {
				fail(err)
			}
		}
	}
	for rank := range bufs {
		fmt.Printf("rank %d:\n", rank)
		os.Stdout.Write(bufs[rank].Bytes())
	}
}

// commMatrix accumulates the send-volume matrix; a send to a peer outside
// [0, ranks) is an error in both paths (the trace disagrees with its own rank
// count), matching cypress.Result.CommMatrix.
func commMatrix(m *merge.Merged, stream bool, par int) ([][]int64, error) {
	n := m.NumRanks
	vol := make([][]int64, n)
	for i := range vol {
		vol[i] = make([]int64, n)
	}
	peerErrs := make([]error, n)
	acc := func(rank int, e *trace.Event) {
		if !e.Op.IsSendLike() {
			return
		}
		if e.Peer < 0 || e.Peer >= n {
			if peerErrs[rank] == nil {
				peerErrs[rank] = fmt.Errorf("rank %d %v to peer %d outside [0,%d)", rank, e.Op, e.Peer, n)
			}
			return
		}
		vol[rank][e.Peer] += int64(e.Size)
	}
	if stream {
		if err := merge.NewStreamer(m).ReplayAll(par, acc); err != nil {
			return nil, err
		}
	} else {
		for rank := 0; rank < n; rank++ {
			err := replay.Events(m.ForRank(rank), rank, func(e *trace.Event) { acc(rank, e) })
			if err != nil {
				return nil, err
			}
		}
	}
	for _, perr := range peerErrs {
		if perr != nil {
			return nil, perr
		}
	}
	return vol, nil
}

// predictRun feeds the decompressed traces to the LogGP simulator, either by
// materializing every rank (legacy) or by streaming pull cursors over shared
// skeletons prepared in parallel. par bounds skeleton preparation; the
// prediction is identical at every value.
func predictRun(m *merge.Merged, stream bool, par int) (simmpi.Result, error) {
	if stream {
		s := merge.NewStreamer(m)
		if err := s.Prepare(par); err != nil {
			return simmpi.Result{}, err
		}
		srcs := make([]simmpi.EventSource, s.NumRanks())
		for rank := range srcs {
			cur, err := s.Cursor(rank)
			if err != nil {
				return simmpi.Result{}, err
			}
			srcs[rank] = cur
		}
		return simmpi.SimulateStream(srcs, mpisim.DefaultParams())
	}
	seqs := make([][]trace.Event, m.NumRanks)
	for r := range seqs {
		seq, err := replay.Sequence(m.ForRank(r), r)
		if err != nil {
			return simmpi.Result{}, err
		}
		seqs[r] = seq
	}
	return simmpi.Simulate(seqs, mpisim.DefaultParams())
}

// writeTraceFile exports the flight recorder as Chrome trace-event JSON.
func writeTraceFile(rec *ftrace.Recorder, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cypressreplay: -trace:", err)
		return
	}
	defer f.Close()
	if err := rec.WriteChromeJSON(f); err != nil {
		fmt.Fprintln(os.Stderr, "cypressreplay: -trace:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "cypressreplay: flight-recorder trace: %d events (%d dropped) -> %s\n",
		rec.Total(), rec.Drops(), path)
}
