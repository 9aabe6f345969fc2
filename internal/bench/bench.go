// Package bench measures the host-side execution speed of the simulation
// engine itself: how many scheduler events and simulated packets one wall-
// clock second buys on a set of fixed-seed representative cells.
//
// This is deliberately distinct from the paper-reproduction benchmarks
// (bench_test.go), which report *simulated* throughput. Here the simulated
// results are only a determinism cross-check — two engine builds must
// produce bit-identical simulation outcomes, and the interesting number is
// how fast the host reached them. BENCH_simcore.json records the trajectory
// so perf work is measured against a baseline, not guessed.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/switches/switchdef"
	"repro/internal/units"
)

// Schema identifies the report format.
const Schema = "swbench-simcore-bench/v1"

// Cell is one fixed-seed representative measurement.
type Cell struct {
	Name string      `json:"name"`
	Cfg  core.Config `json:"-"`
}

// Cells returns the representative workload set: the stress cell every
// switch paper plots first (p2p at 64B), the three vhost-heavy guest
// paths (p2v, v2v, and a 4-VNF loopback chain — the deepest pipeline the
// paper measures for every switch), the two multi-core dispatch paths
// (4-core RSS and the 4-core RTC pipeline), which stress the fleet
// fan-out, demux, and handoff-ring machinery, and the long-service-chain
// cell (bidirectional 8-VNF loopback).
func Cells(o core.RunOpts) []Cell {
	mk := func(name string, cfg core.Config) Cell {
		return Cell{Name: name, Cfg: o.Apply(cfg)}
	}
	return []Cell{
		mk("p2p-64B", core.Config{Switch: "vpp", Scenario: core.P2P, FrameLen: 64}),
		// Per-switch p2p stress cells (p2p-64B is the VPP member of the
		// set): these are switch-bound — host time goes to the dataplane
		// model, not the guest path — so they isolate switch-layer
		// regressions and show what classification memoization buys.
		mk("p2p-64B-ovs", core.Config{Switch: "ovs", Scenario: core.P2P, FrameLen: 64}),
		mk("p2p-64B-ovs-256f", core.Config{Switch: "ovs", Scenario: core.P2P, FrameLen: 64, Flows: 256}),
		// Mid-run rule churn against a Zipf flow mix: the control-plane
		// path (install/revoke, cache invalidation, memo retirement) plus
		// the Zipf draw per frame, all on the EMC-bound OvS data plane.
		mk("churn-64B-ovs", core.Config{Switch: "ovs", Scenario: core.P2P, FrameLen: 64,
			Flows: 8192, ZipfSkew: 1.1, RuleUpdateRate: 10000}),
		mk("p2p-64B-fastclick", core.Config{Switch: "fastclick", Scenario: core.P2P, FrameLen: 64}),
		mk("p2p-64B-t4p4s", core.Config{Switch: "t4p4s", Scenario: core.P2P, FrameLen: 64}),
		mk("p2p-64B-bess", core.Config{Switch: "bess", Scenario: core.P2P, FrameLen: 64}),
		mk("p2v-64B", core.Config{Switch: "vpp", Scenario: core.P2V, FrameLen: 64}),
		mk("v2v-64B", core.Config{Switch: "vpp", Scenario: core.V2V, FrameLen: 64}),
		mk("loopback-4", core.Config{Switch: "vpp", Scenario: core.Loopback, Chain: 4, FrameLen: 64}),
		mk("p2p-64B-4core", core.Config{Switch: "vpp", Scenario: core.P2P, FrameLen: 64,
			Bidir: true, Flows: 64, SUTCores: 4,
			Dispatch: core.DispatchRSS, RSSPolicy: core.RSSFlowHash}),
		mk("rtc-chain-4core", core.Config{Switch: "vpp", Scenario: core.Loopback, Chain: 2,
			FrameLen: 64, Flows: 64, SUTCores: 4, Dispatch: core.DispatchRTC}),
		mk("chain-8-64B", core.Config{Switch: "vpp", Scenario: core.Loopback, Chain: 8,
			FrameLen: 64, Bidir: true}),
	}
}

// CellResult is one cell's measurement: simulation observables (identical
// across engine builds) plus host-side timing.
type CellResult struct {
	Name string `json:"name"`

	// Simulation observables — the determinism cross-check.
	SimPackets int64   `json:"sim_packets"` // frames delivered in the window
	Steps      uint64  `json:"steps"`       // scheduler steps dispatched
	Gbps       float64 `json:"gbps"`
	Drops      int64   `json:"drops"`

	// Host-side timing (best of Repeats runs).
	WallSeconds  float64 `json:"wall_seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
	SimPktPerSec float64 `json:"sim_pkt_per_sec"`

	// HostSpeedupVsPrev is referenceWall / thisWall when the run also
	// measured the previous hot-path behaviour — the per-frame reference
	// classification path, selected by force-disabling memoization — in
	// the same process (Options.MemoBaseline). The two passes must agree
	// on every simulation observable; only the host clock may differ.
	HostSpeedupVsPrev float64 `json:"host_speedup_vs_prev,omitempty"`
}

// Report is one engine build's full measurement.
type Report struct {
	Schema  string       `json:"schema"`
	GoArch  string       `json:"goarch"`
	GoOS    string       `json:"goos"`
	CPUs    int          `json:"cpus"`
	Quick   bool         `json:"quick"`
	Repeats int          `json:"repeats"`
	Cells   []CellResult `json:"cells"`
}

// Options configures a bench run.
type Options struct {
	// Opts sets the simulation window per cell.
	Opts core.RunOpts
	// Quick is recorded in the report (whether Opts came from the quick
	// profile).
	Quick bool
	// Repeats is how many times each cell runs; the best wall time wins
	// (default 3).
	Repeats int
	// Cells, when non-empty, restricts the run to the named cells (CI
	// smoke runs a single quick guest-path cell this way).
	Cells []string
	// MemoBaseline additionally runs every cell with classification
	// memoization force-disabled (the reference per-frame path), asserts
	// the simulation observables are bit-identical, and records the
	// reference-vs-memoized host speedup as HostSpeedupVsPrev.
	MemoBaseline bool
	// Progress, when non-nil, receives one line per finished cell.
	Progress io.Writer
}

// Run executes every cell Repeats times and reports best-of host timings.
func Run(opts Options) (*Report, error) {
	if opts.Repeats <= 0 {
		opts.Repeats = 3
	}
	rep := &Report{
		Schema:  Schema,
		GoArch:  runtime.GOARCH,
		GoOS:    runtime.GOOS,
		CPUs:    runtime.NumCPU(),
		Quick:   opts.Quick,
		Repeats: opts.Repeats,
	}
	selected := 0
	for _, cell := range Cells(opts.Opts) {
		if len(opts.Cells) > 0 {
			found := false
			for _, want := range opts.Cells {
				if cell.Name == want {
					found = true
					break
				}
			}
			if !found {
				continue
			}
		}
		selected++
		cr, err := runCell(cell, opts.Repeats, opts.MemoBaseline)
		if err != nil {
			return nil, fmt.Errorf("bench %s: %w", cell.Name, err)
		}
		if opts.Progress != nil {
			fmt.Fprintf(opts.Progress, "  %-14s %8.1f ms  %6.2f Mevents/s  %6.2f Msimpkt/s\n",
				cr.Name, cr.WallSeconds*1e3, cr.EventsPerSec/1e6, cr.SimPktPerSec/1e6)
		}
		rep.Cells = append(rep.Cells, cr)
	}
	if len(opts.Cells) > 0 && selected != len(opts.Cells) {
		return nil, fmt.Errorf("bench: cell filter %v matched %d of %d names", opts.Cells, selected, len(opts.Cells))
	}
	return rep, nil
}

func runCell(cell Cell, repeats int, memoBaseline bool) (CellResult, error) {
	cr := CellResult{Name: cell.Name}
	for r := 0; r < repeats; r++ {
		start := time.Now()
		res, err := core.Run(cell.Cfg)
		wall := time.Since(start)
		if err != nil {
			return cr, err
		}
		var pkts int64
		for _, d := range res.Dirs {
			pkts += d.RxPackets
		}
		if r == 0 {
			cr.SimPackets = pkts
			cr.Steps = res.Steps
			cr.Gbps = res.Gbps
			cr.Drops = res.Drops
			cr.WallSeconds = wall.Seconds()
		} else {
			// Determinism cross-check between repeats of one build.
			if pkts != cr.SimPackets || res.Steps != cr.Steps {
				return cr, fmt.Errorf("nondeterministic cell: repeat %d delivered %d pkts / %d steps, first run %d / %d",
					r, pkts, res.Steps, cr.SimPackets, cr.Steps)
			}
			if s := wall.Seconds(); s < cr.WallSeconds {
				cr.WallSeconds = s
			}
		}
	}
	if cr.WallSeconds > 0 {
		cr.EventsPerSec = float64(cr.Steps) / cr.WallSeconds
		cr.SimPktPerSec = float64(cr.SimPackets) / cr.WallSeconds
	}
	if memoBaseline {
		refWall, err := runReferencePass(cell, repeats, cr)
		if err != nil {
			return cr, err
		}
		if cr.WallSeconds > 0 {
			cr.HostSpeedupVsPrev = refWall / cr.WallSeconds
		}
	}
	return cr, nil
}

// runReferencePass reruns the cell with classification memoization
// force-disabled (the per-frame reference path) and returns its best wall
// time, failing if any simulation observable differs from the memoized run.
func runReferencePass(cell Cell, repeats int, want CellResult) (float64, error) {
	prev := switchdef.SetMemoDisabled(true)
	defer switchdef.SetMemoDisabled(prev)
	best := 0.0
	for r := 0; r < repeats; r++ {
		start := time.Now()
		res, err := core.Run(cell.Cfg)
		wall := time.Since(start).Seconds()
		if err != nil {
			return 0, err
		}
		var pkts int64
		for _, d := range res.Dirs {
			pkts += d.RxPackets
		}
		if pkts != want.SimPackets || res.Steps != want.Steps || res.Gbps != want.Gbps || res.Drops != want.Drops {
			return 0, fmt.Errorf("%w: cell %s reference pass (memoized %d pkts / %d steps / %.3f Gbps / %d drops, reference %d / %d / %.3f / %d)",
				ErrOutputsDiverged, cell.Name,
				want.SimPackets, want.Steps, want.Gbps, want.Drops,
				pkts, res.Steps, res.Gbps, res.Drops)
		}
		if r == 0 || wall < best {
			best = wall
		}
	}
	return best, nil
}

// Comparison merges a baseline report with an optimized one, cell by cell.
type Comparison struct {
	Schema string           `json:"schema"`
	GoArch string           `json:"goarch"`
	GoOS   string           `json:"goos"`
	CPUs   int              `json:"cpus"`
	Quick  bool             `json:"quick"`
	Cells  []ComparisonCell `json:"cells"`
	// Headline numbers: baseline wall / optimized wall on the host p2p
	// cell and the two guest-path cells.
	HostSpeedupP2P64B    float64 `json:"host_speedup_p2p_64b"`
	HostSpeedupV2V64B    float64 `json:"host_speedup_v2v_64b"`
	HostSpeedupLoopback4 float64 `json:"host_speedup_loopback_4"`
}

// ComparisonCell pairs one cell's baseline and optimized measurements.
type ComparisonCell struct {
	Name        string     `json:"name"`
	Baseline    CellResult `json:"baseline"`
	Optimized   CellResult `json:"optimized"`
	HostSpeedup float64    `json:"host_speedup"`
}

// ErrOutputsDiverged marks a baseline/optimized pair whose simulation
// observables differ — the optimized engine changed behaviour, which this
// repo's perf work must never do.
var ErrOutputsDiverged = fmt.Errorf("bench: engine outputs diverged between baseline and optimized runs")

// Compare merges baseline and optimized reports. Cells present in only one
// report are dropped; cells whose simulation observables disagree on packet
// count, throughput, or drops fail with ErrOutputsDiverged. Steps is NOT
// compared: collapsing the event count (batching) is exactly what the
// engine work is allowed to change, while the simulated traffic is not.
func Compare(baseline, optimized *Report) (*Comparison, error) {
	base := map[string]CellResult{}
	for _, c := range baseline.Cells {
		base[c.Name] = c
	}
	cmp := &Comparison{
		Schema: Schema,
		GoArch: optimized.GoArch,
		GoOS:   optimized.GoOS,
		CPUs:   optimized.CPUs,
		Quick:  optimized.Quick,
	}
	for _, oc := range optimized.Cells {
		bc, ok := base[oc.Name]
		if !ok {
			continue
		}
		if bc.SimPackets != oc.SimPackets || bc.Gbps != oc.Gbps || bc.Drops != oc.Drops {
			return nil, fmt.Errorf("%w: cell %s (baseline %d pkts / %.3f Gbps / %d drops, optimized %d / %.3f / %d)",
				ErrOutputsDiverged, oc.Name,
				bc.SimPackets, bc.Gbps, bc.Drops,
				oc.SimPackets, oc.Gbps, oc.Drops)
		}
		cc := ComparisonCell{Name: oc.Name, Baseline: bc, Optimized: oc}
		if oc.WallSeconds > 0 {
			cc.HostSpeedup = bc.WallSeconds / oc.WallSeconds
		}
		switch oc.Name {
		case "p2p-64B":
			cmp.HostSpeedupP2P64B = cc.HostSpeedup
		case "v2v-64B":
			cmp.HostSpeedupV2V64B = cc.HostSpeedup
		case "loopback-4":
			cmp.HostSpeedupLoopback4 = cc.HostSpeedup
		}
		cmp.Cells = append(cmp.Cells, cc)
	}
	return cmp, nil
}

// WriteJSON writes v as indented JSON with a trailing newline.
func WriteJSON(w io.Writer, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(blob, '\n'))
	return err
}

// ReadReport loads a Report written by WriteJSON.
func ReadReport(r io.Reader) (*Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, err
	}
	if rep.Schema != Schema {
		return nil, fmt.Errorf("bench: unexpected schema %q (want %q)", rep.Schema, Schema)
	}
	return &rep, nil
}

// DefaultOpts returns the measurement window for bench cells: long enough
// that per-run setup cost is noise, short enough to iterate on.
func DefaultOpts(quick bool) core.RunOpts {
	if quick {
		return core.RunOpts{Duration: 4 * units.Millisecond, Warmup: units.Millisecond}
	}
	return core.RunOpts{Duration: 20 * units.Millisecond, Warmup: 2 * units.Millisecond}
}
