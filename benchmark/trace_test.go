package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	at := func(id, parent int, start, end time.Duration) span {
		return span{ID: id, Parent: parent, Name: "s", Start: start, End: end}
	}
	spans := []span{
		at(0, -1, 0, 100), // root
		at(1, 0, 10, 30),  // child
		at(2, 0, 30, 50),  // adjacent to 1
		at(3, 2, 35, 45),  // nested in 2: counts against 2, not against the root
		at(4, 0, 45, 70),  // overlaps 2: the overlap counts once
		at(5, 0, 90, 120), // runs past the root: only the part inside counts
	}
	want := []time.Duration{
		100 - (20 + 20 + 20 + 10), // 10..70 covered once, 90..100 inside
		20, 10, 10, 25, 30,
	}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got, want[i])
		}
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("cell", -1, 0, nil)
	tr.end(id)
	if id != -1 {
		t.Errorf("nil tracer returned span %d", id)
	}
}

func TestWriteChrome(t *testing.T) {
	tr := newTracer()
	root := tr.begin("workload", -1, 0, map[string]string{"workload": "w"})
	tr.end(tr.begin("cell", root, 1, map[string]string{"switch": "vpp"}))
	tr.end(root)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Name != "cell" || doc.TraceEvents[1].Args["switch"] != "vpp" {
		t.Errorf("unexpected events: %+v", doc.TraceEvents)
	}
	if doc.TraceEvents[0].Ph != "X" || doc.TraceEvents[0].Dur < doc.TraceEvents[1].Dur {
		t.Errorf("root must be a complete event covering its child: %+v", doc.TraceEvents)
	}
}
