package cypress

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/merge"
	"repro/internal/npb"
	"repro/internal/trace"
)

// npbPredictPinPath holds one line per NPB skeleton traced at npbPinRanks
// ranks: the workload name and the exact Predict().TotalNS of the in-memory
// trace. Regenerate it only for an intentional change of the simulator's
// output, with the same flag as the output pin:
//
//	go test . -run TestNPBPredictPin -update
var npbPredictPinPath = filepath.Join("testdata", "npb_predict_pin.txt")

var (
	npbTracesOnce sync.Once
	npbTraces     []*Result
	npbTracesErr  error
)

// npbPinTraces traces every NPB skeleton at npbPinRanks ranks once per test
// binary, in npb.All order.
func npbPinTraces(t *testing.T) []*Result {
	t.Helper()
	npbTracesOnce.Do(func() {
		for _, w := range npb.All() {
			p, err := Compile(w.Source(npbPinRanks, npb.Paper))
			if err != nil {
				npbTracesErr = fmt.Errorf("%s: %w", w.Name, err)
				return
			}
			res, err := p.Trace(npbPinRanks, Options{})
			if err != nil {
				npbTracesErr = fmt.Errorf("%s: %w", w.Name, err)
				return
			}
			npbTraces = append(npbTraces, res)
		}
	})
	if npbTracesErr != nil {
		t.Fatal(npbTracesErr)
	}
	return npbTraces
}

// TestNPBPredictPin pins the LogGP prediction of every NPB skeleton bit for
// bit, and requires a corpus-served trace to predict exactly what the
// in-memory trace predicts: the simulator's rank scheduling must never move
// a clock, and decoding must not lose anything the simulator reads.
func TestNPBPredictPin(t *testing.T) {
	traces := npbPinTraces(t)
	c, err := OpenCorpus(t.TempDir(), CorpusOptions{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var got strings.Builder
	for i, w := range npb.All() {
		pred, err := traces[i].Predict()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		fmt.Fprintf(&got, "%s %s\n", w.Name, strconv.FormatFloat(pred.TotalNS, 'g', -1, 64))

		id, err := c.Ingest(traces[i])
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		res, release, err := c.Get(id)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		served, err := res.Predict()
		release()
		if err != nil {
			t.Fatalf("%s: corpus-served predict: %v", w.Name, err)
		}
		if served.TotalNS != pred.TotalNS {
			t.Errorf("%s: corpus-served prediction %v ns, in-memory %v ns", w.Name, served.TotalNS, pred.TotalNS)
		}
		for r := range pred.PerRankNS {
			if served.PerRankNS[r] != pred.PerRankNS[r] || served.CommNS[r] != pred.CommNS[r] {
				t.Errorf("%s: rank %d: corpus-served clock %v / comm %v, in-memory %v / %v",
					w.Name, r, served.PerRankNS[r], served.CommNS[r], pred.PerRankNS[r], pred.CommNS[r])
				break
			}
		}
	}
	if *updateNPBPin {
		if err := os.WriteFile(npbPredictPinPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(npbPredictPinPath)
	if err != nil {
		t.Fatalf("missing NPB prediction pin (run with -update to generate): %v", err)
	}
	if got.String() != string(want) {
		t.Fatalf("NPB prediction drifted from %s:\ngot:\n%swant:\n%s", npbPredictPinPath, got.String(), want)
	}
}

// sameEvent compares two replayed events field for field. Unlike
// replay.Equivalent it includes GID and the request lists, which the
// simulator reads to pair completions with their posters.
func sameEvent(a, b *trace.Event) bool {
	if a.Op != b.Op || a.Size != b.Size || a.Peer != b.Peer || a.Tag != b.Tag ||
		a.Comm != b.Comm || a.GID != b.GID || a.Wildcard != b.Wildcard ||
		a.ReqID != b.ReqID || a.DurationNS != b.DurationNS || a.ComputeNS != b.ComputeNS ||
		len(a.Reqs) != len(b.Reqs) || len(a.ReqSrcs) != len(b.ReqSrcs) {
		return false
	}
	for i := range a.Reqs {
		if a.Reqs[i] != b.Reqs[i] {
			return false
		}
	}
	for i := range a.ReqSrcs {
		if a.ReqSrcs[i] != b.ReqSrcs[i] {
			return false
		}
	}
	return true
}

// TestReplayFidelityAfterDecode replays every rank of every NPB skeleton
// from the in-memory trace and from each decoded form a trace can be served
// in, and requires identical events, GID and request lists included.
func TestReplayFidelityAfterDecode(t *testing.T) {
	traces := npbPinTraces(t)
	c, err := OpenCorpus(t.TempDir(), CorpusOptions{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, w := range npb.All() {
		res := traces[i]
		var buf bytes.Buffer
		if _, err := res.WriteTrace(&buf, false); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		enc := buf.Bytes()
		id, err := c.Ingest(res)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}

		forms := map[string]func() (*merge.Streamer, func(), error){
			"ReadTrace": func() (*merge.Streamer, func(), error) {
				m, err := ReadTrace(bytes.NewReader(enc))
				if err != nil {
					return nil, nil, err
				}
				return merge.NewStreamer(m), func() {}, nil
			},
			"DecodeSelect(eager rank 3)": func() (*merge.Streamer, func(), error) {
				m, err := merge.DecodeSelect(enc, merge.SelectRanks(3))
				if err != nil {
					return nil, nil, err
				}
				return merge.NewStreamer(m), func() {}, nil
			},
			"DecodeSelect(lazy)": func() (*merge.Streamer, func(), error) {
				m, err := merge.DecodeSelect(enc, merge.SelectRanks())
				if err != nil {
					return nil, nil, err
				}
				return merge.NewStreamer(m), func() {}, nil
			},
			"corpus Get": func() (*merge.Streamer, func(), error) {
				r, release, err := c.Get(id)
				if err != nil {
					return nil, nil, err
				}
				return r.Streamer(), release, nil
			},
			"corpus GetProjected": func() (*merge.Streamer, func(), error) {
				r, release, err := c.GetProjected(id, 5)
				if err != nil {
					return nil, nil, err
				}
				return r.Streamer(), release, nil
			},
		}
		want := make([][]trace.Event, npbPinRanks)
		for rank := range want {
			if want[rank], err = res.Replay(rank); err != nil {
				t.Fatalf("%s: in-memory rank %d: %v", w.Name, rank, err)
			}
		}
		for name, open := range forms {
			s, release, err := open()
			if err != nil {
				t.Fatalf("%s %s: %v", w.Name, name, err)
			}
			for rank := 0; rank < npbPinRanks; rank++ {
				k := 0
				bad := ""
				err := s.Replay(rank, func(e *trace.Event) {
					if bad == "" && (k >= len(want[rank]) || !sameEvent(&want[rank][k], e)) {
						if k < len(want[rank]) {
							bad = fmt.Sprintf("event %d: got %+v, want %+v", k, *e, want[rank][k])
						} else {
							bad = fmt.Sprintf("extra event %d: %+v", k, *e)
						}
					}
					k++
				})
				if err != nil {
					t.Fatalf("%s %s rank %d: %v", w.Name, name, rank, err)
				}
				if bad == "" && k != len(want[rank]) {
					bad = fmt.Sprintf("%d events, want %d", k, len(want[rank]))
				}
				if bad != "" {
					t.Errorf("%s %s rank %d: %s", w.Name, name, rank, bad)
					break
				}
			}
			release()
		}
	}
}
