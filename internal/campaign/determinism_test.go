package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/units"
)

// TestParallelCampaignIsDeterministic is the determinism regression: a
// campaign at Workers=8 must produce bit-identical Results — and identical
// JSONL artifacts modulo timing fields — to the same campaign at
// Workers=1. Each cell is one single-threaded deterministic simulation;
// the pool must neither share state between cells nor let completion
// order leak into the outcomes.
func TestParallelCampaignIsDeterministic(t *testing.T) {
	c := smallCampaign("determinism")
	serial := New(context.Background(), Options{Workers: 1})
	parallel := New(context.Background(), Options{Workers: 8})

	rep1, err := serial.Run(c)
	if err != nil || rep1.Failed != 0 {
		t.Fatalf("serial: %v / %v", err, rep1.Err())
	}
	rep8, err := parallel.Run(c)
	if err != nil || rep8.Failed != 0 {
		t.Fatalf("parallel: %v / %v", err, rep8.Err())
	}

	for i := range rep1.Outcomes {
		r1, r8 := rep1.Outcomes[i].Result, rep8.Outcomes[i].Result
		if !reflect.DeepEqual(r1, r8) {
			t.Errorf("cell %d (%s): Workers=1 and Workers=8 results differ:\n  w1: %+v\n  w8: %+v",
				i, rep1.Outcomes[i].Spec.ID, r1, r8)
		}
		if r1.Steps != r8.Steps {
			t.Errorf("cell %d: scheduler fingerprints differ (%d vs %d)", i, r1.Steps, r8.Steps)
		}
	}

	a1 := artifactsModuloTiming(t, rep1)
	a8 := artifactsModuloTiming(t, rep8)
	if !bytes.Equal(a1, a8) {
		t.Fatalf("artifact logs differ modulo timing fields:\n--- w1 ---\n%s\n--- w8 ---\n%s", a1, a8)
	}
}

// artifactsModuloTiming renders the JSONL artifact log with the
// run-to-run timing fields stripped.
func artifactsModuloTiming(t *testing.T, rep *Report) []byte {
	t.Helper()
	var raw bytes.Buffer
	if err := WriteArtifacts(&raw, rep); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	dec := json.NewDecoder(&raw)
	enc := json.NewEncoder(&out)
	for dec.More() {
		var m map[string]any
		if err := dec.Decode(&m); err != nil {
			t.Fatal(err)
		}
		for _, f := range TimingFields {
			delete(m, f)
		}
		if err := enc.Encode(m); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

// TestCampaignMatchesDirectRuns pins the orchestrator to the ground
// truth: outcomes equal calling core.Run directly, cell by cell.
func TestCampaignMatchesDirectRuns(t *testing.T) {
	c := smallCampaign("direct")
	o := New(context.Background(), Options{Workers: 8})
	rep, err := o.Run(c)
	if err != nil || rep.Failed != 0 {
		t.Fatalf("run: %v / %v", err, rep.Err())
	}
	for i, spec := range c.Specs {
		want, err := core.Run(spec.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep.Outcomes[i].Result, want) {
			t.Errorf("cell %d (%s): campaign result differs from direct core.Run", i, spec.ID)
		}
	}
}

// TestParallelCellsShareNoPool: cells lease their packet pools from one
// process-wide stack, so at Workers=4 a pool one cell released serves
// whichever cell acquires next, in whatever role. Cells of different
// shapes, repeated and interleaved, must still give the serial Results;
// run under -race, a pool two live cells shared would also be a race.
func TestParallelCellsShareNoPool(t *testing.T) {
	shapes := []core.Config{
		{Switch: "ovs", Scenario: core.P2P, FrameLen: 64, Bidir: true, ProbeEvery: 50 * units.Microsecond},
		{Switch: "vpp", Scenario: core.Loopback, Chain: 2, FrameLen: 64},
		{Switch: "snabb", Scenario: core.P2V, FrameLen: 1024, Bidir: true},
		{Switch: "vale", Scenario: core.V2V, FrameLen: 64},
		{Switch: "ovs", Scenario: core.P2P, FrameLen: 64, Flows: 256, SUTCores: 2},
		{Switch: "fastclick", Scenario: core.Loopback, Chain: 1, FrameLen: 256},
	}
	var specs []Spec
	for rep := 0; rep < 3; rep++ {
		for _, cfg := range shapes {
			cfg.Duration, cfg.Warmup = 500*units.Microsecond, 200*units.Microsecond
			specs = append(specs, Spec{Cfg: cfg})
		}
	}
	c := Campaign{Name: "leased-pools", Specs: specs}
	serial, err := New(context.Background(), Options{Workers: 1}).Run(c)
	if err != nil || serial.Failed != 0 {
		t.Fatalf("serial: %v / %v", err, serial.Err())
	}
	parallel, err := New(context.Background(), Options{Workers: 4}).Run(c)
	if err != nil || parallel.Failed != 0 {
		t.Fatalf("parallel: %v / %v", err, parallel.Err())
	}
	for i := range serial.Outcomes {
		if !reflect.DeepEqual(serial.Outcomes[i].Result, parallel.Outcomes[i].Result) {
			t.Errorf("cell %d (%s): Workers=4 result differs from the serial one", i, serial.Outcomes[i].Spec.ID)
		}
	}
}

// growRuns numbers the runs of TestParallelCellsGrowOneTemplateEntry, so
// each uses a frame length no earlier run built templates for.
var growRuns atomic.Int32

// TestParallelCellsGrowOneTemplateEntry: OvS p2p cells of one frame spec at
// 512, 8 192 and 32 768 flows, uniform and Zipf 1.1, interleaved at
// Workers=4, so one cell's generator reads its slice of tgen's template
// store while another cell grows the entry. The parallel run goes first,
// on a frame length no other test uses, so it is the one that grows the
// entry; under -race, writing a slice a generator reads would be a race.
// The Results must be the serial ones.
func TestParallelCellsGrowOneTemplateEntry(t *testing.T) {
	frameLen := 100 + int(growRuns.Add(1))
	var specs []Spec
	for _, flows := range []int{512, 32768, 8192} {
		for _, skew := range []float64{0, 1.1} {
			specs = append(specs, Spec{Cfg: core.Config{
				Switch: "ovs", Scenario: core.P2P, FrameLen: frameLen, Flows: flows, ZipfSkew: skew,
				Duration: 500 * units.Microsecond, Warmup: 200 * units.Microsecond,
			}})
		}
	}
	c := Campaign{Name: "template-growth", Specs: specs}
	parallel, err := New(context.Background(), Options{Workers: 4}).Run(c)
	if err != nil || parallel.Failed != 0 {
		t.Fatalf("parallel: %v / %v", err, parallel.Err())
	}
	serial, err := New(context.Background(), Options{Workers: 1}).Run(c)
	if err != nil || serial.Failed != 0 {
		t.Fatalf("serial: %v / %v", err, serial.Err())
	}
	for i := range serial.Outcomes {
		if serial.Outcomes[i].Result.Mpps <= 0 {
			t.Errorf("cell %d (%s) forwarded nothing", i, serial.Outcomes[i].Spec.ID)
		}
		if !reflect.DeepEqual(serial.Outcomes[i].Result, parallel.Outcomes[i].Result) {
			t.Errorf("cell %d (%s): Workers=4 result differs from the serial one", i, serial.Outcomes[i].Spec.ID)
		}
	}
}
