package topo

import (
	"encoding/json"
	"os"
	"testing"
)

// FuzzTopologyParse feeds arbitrary bytes to Parse, the one parser outside
// bytes reach (swbench -topology and topo -file). Nothing may panic, and
// every graph Parse accepts must compile: Validate is the only gate in
// front of NewPlan, so a validated graph that NewPlan rejects is a
// Validate bug.
func FuzzTopologyParse(f *testing.F) {
	for _, path := range []string{chain3Path, "../../examples/sdnrules/churn.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	graphs := []*Graph{chainGraph(1), chainGraph(3), fanOutGraph()}
	for _, g := range rejectCases() {
		graphs = append(graphs, g)
	}
	for _, g := range graphs {
		blob, err := json.Marshal(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	for _, data := range parseRejects(f) {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Parse(data)
		if err != nil {
			return
		}
		if _, err := NewPlan(g); err != nil {
			t.Fatalf("Parse accepted a graph NewPlan rejects: %v\n%s", err, data)
		}
	})
}
