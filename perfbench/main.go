// Command perfbench is the end-to-end benchmark of the CYPRESS pipeline. It
// runs one workload for a fixed time as one closed-loop client, checks the
// outputs, and prints its metrics as one JSON object on the last line of
// standard output:
//
//	go run . --workload trace-npb --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics, measured on
// untraced requests. With --trace 1 it carries the per-layer metrics:
// requests then alternate between untraced and traced, the traced ones wrap
// benchmark-owned spans around each call into a layer and count through the
// pipeline's obs sink, and the spans are exported to the output directory as
// Chrome trace-event JSON (Perfetto) plus a per-layer self-time table.
// README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

var workloads = map[string]func(config) (*outcome, error){
	"trace-npb":    runTraceNPB,
	"analyze-npb":  runAnalyzeNPB,
	"serve-corpus": runServeCorpus,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "trace-npb, analyze-npb or serve-corpus")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "length of the timed phase")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&cfg.dir, "out", ".bench_build/perfbench", "directory for corpora and trace exports")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(cfg config, w io.Writer) error {
	fn := workloads[cfg.workload]
	if fn == nil {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("need --seconds > 0")
	}
	// One process, at most two cores: figures stay comparable across
	// machines with more.
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return err
	}
	o, err := fn(cfg)
	if err != nil {
		return err
	}
	if o.attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	failedFrac := float64(o.failed) / float64(o.attempted)

	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	o.samples["compile"] = len(o.compileMS)
	o.samples["setup_s"] = len(o.setups)
	o.e2e["setup_s"] = median(o.setups)
	if !cfg.trace {
		for name, unit := range e2eUnits {
			res.Metrics[name] = metric{o.e2e[name], unit}
		}
	} else {
		o.layerRaw["cst.compile_ms"] = median(o.compileMS)
		o.layerRaw["bench.failed_frac"] = failedFrac
		for name, unit := range layerUnits {
			res.Metrics[name] = metric{o.layerRaw[name], unit}
		}
		if err := exportSpans(cfg, o); err != nil {
			return err
		}
	}

	// The environment stamp and a readable summary precede the result line.
	env := map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": procs, "go": runtime.Version(),
		"commit": commit(), "seed": cfg.seed, "workload": cfg.workload, "trace": cfg.trace,
		"seconds": cfg.seconds, "inputs": o.inputs, "samples": o.samples, "setup_reps_s": o.setups,
	}
	if err := json.NewEncoder(w).Encode(map[string]any{"env": env}); err != nil {
		return err
	}
	o.note("setup_s", "s", o.e2e["setup_s"])
	o.note("peak_rss_mb", "MB", o.e2e["peak_rss_mb"])
	o.note("failed_frac", "ratio", failedFrac)
	for _, l := range o.report {
		fmt.Fprintf(w, "# %-22s %16.4f %s\n", l.name, l.value, l.unit)
	}
	return json.NewEncoder(w).Encode(res)
}

// exportSpans writes the traced run's spans as Chrome trace-event JSON and
// its per-layer self-time table.
func exportSpans(cfg config, o *outcome) error {
	base := filepath.Join(cfg.dir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	f, err := os.Create(base + ".trace.json")
	if err != nil {
		return err
	}
	meta := map[string]any{"workload": cfg.workload, "seed": cfg.seed, "requests": o.spans.req}
	if err := o.spans.writeChromeJSON(f, meta); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	t, err := os.Create(base + ".layers.txt")
	if err != nil {
		return err
	}
	if err := o.spans.writeLayerTable(t, cfg.workload); err != nil {
		t.Close()
		return err
	}
	return t.Close()
}

// commit is the VCS revision the binary was built from, when known.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}
