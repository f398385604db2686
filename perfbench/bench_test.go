package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro"
)

// benchmarkSpec is the part of BENCHMARK.json the output must match.
type benchmarkSpec struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func tinyRun(t *testing.T, workload string, seed uint64, traced bool, mutate func([]byte)) result {
	t.Helper()
	return runResult(t, config{workload: workload, seed: seed, seconds: 0.2, trace: traced, tiny: true,
		dir: t.TempDir(), mutateFetch: mutate})
}

// runResult runs the benchmark and returns its last output line.
func runResult(t *testing.T, cfg config) result {
	t.Helper()
	workload := cfg.workload
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: last line is not a result: %v", workload, err)
	}
	return r
}

// TestTinyRunEmitsEveryMetric runs every workload at a tiny size, untraced
// and traced, and checks that each reports exactly the metrics
// BENCHMARK.json names, with their units, and passes its checks.
func TestTinyRunEmitsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			r := tinyRun(t, w.Name, 7, traced, nil)
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.Name, traced, r.Correct, r.Failed, r.Attempted)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, traced, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestDeterministicMetrics checks that the metrics that count output rather
// than time repeat exactly for a seed.
func TestDeterministicMetrics(t *testing.T) {
	for name := range workloads {
		a := tinyRun(t, name, 11, false, nil)
		b := tinyRun(t, name, 11, false, nil)
		for _, m := range []string{"compressed_bytes", "predict_error_pct"} {
			if a.Metrics[m] != b.Metrics[m] {
				t.Errorf("%s: %s is %v, then %v", name, m, a.Metrics[m].Value, b.Metrics[m].Value)
			}
		}
	}
}

// TestCorruptFetchIsAFailure flips one byte of every fetched encoding: each
// fetch must count as a failed operation without stopping the run.
func TestCorruptFetchIsAFailure(t *testing.T) {
	r := tinyRun(t, "serve-corpus", 3, false, func(b []byte) {
		if len(b) > 0 {
			b[len(b)/2] ^= 0x40
		}
	})
	if r.Correct || r.Failed == 0 {
		t.Fatalf("corrupted fetches went unnoticed: correct=%v failed=%d", r.Correct, r.Failed)
	}
	if len(r.Metrics) == 0 {
		t.Fatal("run with failures reported no metrics")
	}
}

// TestFailingQueriesEndTheRun points every timed query at a trace id the
// corpus does not hold: the queries must count as failed operations and the
// run must still end and report.
func TestFailingQueriesEndTheRun(t *testing.T) {
	cfg := config{workload: "serve-corpus", seed: 3, seconds: 0.2, tiny: true, dir: t.TempDir(),
		mutateQueryID: func(id cypress.TraceID) cypress.TraceID { return id ^ 1 }}
	r := runResult(t, cfg)
	if r.Correct || r.Failed == 0 {
		t.Fatalf("failing queries went unnoticed: correct=%v failed=%d", r.Correct, r.Failed)
	}
	if len(r.Metrics) == 0 {
		t.Fatal("run with failures reported no metrics")
	}
}
