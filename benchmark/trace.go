package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one traced interval: a call the benchmark made into a layer.
// Spans sit only around calls made from this package; nothing inside the
// simulator is instrumented.
type span struct {
	ID     int
	Parent int // -1 for a root
	Pass   int // shared by every span of one workload pass
	Name   string
	Start  time.Duration // since the tracer's origin
	End    time.Duration
	Attrs  map[string]string
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how timed passes run with tracing off.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent (-1 for none) and returns its id.
func (t *tracer) begin(name string, parent, pass int, attrs map[string]string) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Pass: pass, Name: name,
		Start: time.Since(t.origin), End: -1, Attrs: attrs,
	})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.origin)
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover. Children may nest further, touch,
// or overlap each other; overlapping cover is counted once and cover
// outside the parent not at all.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := time.Duration(0)
		edge := s.Start // everything before edge is already accounted
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which chrome://tracing and Perfetto load directly.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`  // µs
	Dur  float64           `json:"dur"` // µs
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeChrome writes the spans to path as Chrome trace-event JSON. Each
// pass becomes one thread row so its span tree reads as one flame.
func (t *tracer) writeChrome(path string) error {
	self := selfTimes(t.spans)
	events := make([]chromeEvent, 0, len(t.spans))
	for i, s := range t.spans {
		args := map[string]string{"self_us": formatFloat(float64(self[i]) / 1e3)}
		for k, v := range s.Attrs {
			args[k] = v
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Pass + 1, Args: args,
		})
	}
	blob, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
