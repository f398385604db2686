package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// span is one benchmark-owned interval around a call into a layer. Spans of
// one request share req; parent is the id of the enclosing span (0 = root).
type span struct {
	id, parent, req int
	name            string
	start, end      time.Duration
}

// layer is the span name's prefix before the first dot.
func (s span) layer() string {
	if i := strings.IndexByte(s.name, '.'); i >= 0 {
		return s.name[:i]
	}
	return s.name
}

// spanRec keeps spans in memory for the traced run. It is used from the
// client goroutine only. A nil *spanRec records nothing, so untraced
// requests pay one branch per call.
type spanRec struct {
	t0    time.Time
	spans []span
	req   int
	stack []int // open span ids, innermost last
}

func newSpanRec() *spanRec { return &spanRec{t0: time.Now()} }

// request opens a root span for a new request and returns its id.
func (r *spanRec) request(name string) int {
	if r == nil {
		return 0
	}
	r.req++
	return r.begin(name)
}

// begin opens a span nested in the innermost open span.
func (r *spanRec) begin(name string) int {
	if r == nil {
		return 0
	}
	parent := 0
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{id: id, parent: parent, req: r.req, name: name, start: time.Since(r.t0)})
	r.stack = append(r.stack, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (r *spanRec) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].end = time.Since(r.t0)
	r.stack = r.stack[:len(r.stack)-1]
}

// durations returns the durations of every closed span with this name.
func (r *spanRec) durations(name string) []time.Duration {
	if r == nil {
		return nil
	}
	var out []time.Duration
	for _, s := range r.spans {
		if s.name == name {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// meanMS is the mean duration of the spans with this name, in ms.
func (r *spanRec) meanMS(name string) float64 {
	ds := r.durations(name)
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return frac(ms(t), float64(len(ds)))
}

// selfTimes sums each layer's self time: a span's duration minus the time
// its child spans cover. Spans are sequential on one goroutine, so children
// never overlap.
func (r *spanRec) selfTimes() map[string]time.Duration {
	child := make([]time.Duration, len(r.spans)+1)
	for _, s := range r.spans {
		child[s.parent] += s.end - s.start
	}
	out := map[string]time.Duration{}
	for _, s := range r.spans {
		out[s.layer()] += s.end - s.start - child[s.id]
	}
	return out
}

// baselineLayer names spans that time reference work outside the pipeline
// (the untraced execution of trace-npb); the table lists them apart.
const baselineLayer = "baseline"

// writeLayerTable writes per-layer self time and its share of all pipeline
// request time.
func (r *spanRec) writeLayerTable(w io.Writer, workload string) error {
	self := r.selfTimes()
	var total time.Duration
	var layers []string
	for l, d := range self {
		if l == baselineLayer {
			continue
		}
		total += d
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "workload %s: %d requests, %d spans, %.3f s in traced requests\n", workload, r.req, len(r.spans), total.Seconds())
	fmt.Fprintf(bw, "%-16s %12s %8s\n", "layer", "self_ms", "share")
	for _, l := range layers {
		fmt.Fprintf(bw, "%-16s %12.3f %7.2f%%\n", l, ms(self[l]), 100*frac(float64(self[l]), float64(total)))
	}
	if d, ok := self[baselineLayer]; ok {
		fmt.Fprintf(bw, "%-16s %12.3f  (untraced reference runs, not in the total)\n", baselineLayer, ms(d))
	}
	return bw.Flush()
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// which Perfetto and chrome://tracing load.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChromeJSON exports every span as Perfetto-loadable trace-event JSON.
// The client is one thread, so nesting on one track mirrors the parent
// links, which the args carry as well.
func (r *spanRec) writeChromeJSON(w io.Writer, meta map[string]any) error {
	evs := make([]chromeEvent, len(r.spans))
	for i, s := range r.spans {
		evs[i] = chromeEvent{
			Name: s.name, Cat: s.layer(), Ph: "X",
			Ts:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
			Pid: 1, Tid: 1,
			Args: map[string]int{"span": s.id, "parent": s.parent, "req": s.req},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     evs,
		"displayTimeUnit": "ms",
		"otherData":       meta,
	})
}
