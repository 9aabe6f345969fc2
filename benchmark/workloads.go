package main

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/units"
)

// shape is the traffic shape a workload's layer probes are parameterised
// by, so one probe name has one value per workload.
type shape struct {
	frameLen   int           // dominant frame size
	flows      int           // active flows (1: the paper's single flow)
	zipf       float64       // flow-mix skew (0: round robin)
	rate       units.BitRate // offered load of the wire loop (0: saturating)
	probeEvery units.Time    // latency-probe interval (0: none)
	// largest is the workload's largest graph: topo.plan_us compiles it,
	// core.cell_fixed_ms assembles and tears it down, and its actor
	// count sizes the scheduler probe.
	largest core.Config
}

// refPoint pairs one simulated value with the paper's for the same cell.
type refPoint struct{ sim, paper float64 }

// workload is one named set of inputs. Its grid, windows and groups are
// fixed; only Config.Seed varies between runs.
type workload struct {
	name string
	why  string
	// window and warmup are the simulated measurement window and lead-in
	// of every cell. They are a tenth of what a one-shot measurement
	// would use so that a run fits several passes over the grid and can
	// report medians; per-cell fixed cost stays under a tenth of a cell
	// on every workload but suite_quick, where it is the point.
	window, warmup units.Time
	// groups are the workload's own axis; the traced pass splits its
	// wall time along it (core.cell_wall_s.<group>).
	groups []string
	shape  shape
	// cached runs the cells through campaign.Orchestrator with a cold
	// on-disk cache, the way `swbench all` and CI run suites.
	cached bool
	// run issues the workload's cells through r, labelling each with its
	// group, and returns the paper reference points its results have.
	run func(r *cellRunner, o core.RunOpts) ([]refPoint, error)
}

const ms = units.Millisecond

var workloads = []workload{
	{
		name:   "p2p_wire",
		why:    "Fig. 4a grid, 7 switches x 64/256/1024 B x uni/bidir, saturating: generator, sink, NIC, pool and scheduler carry it; no guest crossing",
		window: 20 * ms, warmup: 4 * ms,
		groups: []string{"64B", "256B", "1024B"},
		shape: shape{frameLen: 64, flows: 1,
			largest: core.Config{Switch: "vpp", Scenario: core.P2P, FrameLen: 64, Bidir: true}},
		run: runP2PWire,
	},
	{
		name:   "guest_chain",
		why:    "7 switches x 64/1024 B x p2v, v2v, loopback-1/2/4: vhost, ptnet, rings, l2fwd and guest cores carry it; v2v cells bypass generator and NIC",
		window: 15 * ms, warmup: 4 * ms,
		groups: []string{"p2v", "v2v", "lb1", "lb2", "lb4"},
		shape: shape{frameLen: 64, flows: 1,
			largest: core.Config{Switch: "vpp", Scenario: core.Loopback, Chain: 4, FrameLen: 64}},
		run: runGuestChain,
	},
	{
		name:   "flow_churn",
		why:    "p2p 64 B on the four programmable switches x 512..32768 flows x Zipf 0/1.1 x 0/10k/100k rule updates/s: classifiers read and written; caches overflow",
		window: 3 * ms, warmup: 2 * ms,
		groups: []string{"upd0", "upd10k", "upd100k"},
		shape: shape{frameLen: 64, flows: 8192, zipf: 1.1, probeEvery: churnProbeEvery,
			largest: core.Config{Switch: "ovs", Scenario: core.P2P, FrameLen: 64, Flows: 32768, RuleUpdateRate: 100000}},
		run: runFlowChurn,
	},
	{
		name:   "latency_ladder",
		why:    "Table 3 method, 7 switches x p2p and loopback-1..4: one saturating R+ run then paced runs at 0.10/0.50/0.99 R+ with probes: rate-mode generator, idle polling, histograms",
		window: 6 * ms, warmup: 4 * ms,
		groups: []string{"sat", "l010", "l050", "l099"},
		shape: shape{frameLen: 64, flows: 1, rate: units.TenGigE / 10, probeEvery: core.DefaultProbeEvery,
			largest: core.Config{Switch: "vpp", Scenario: core.Loopback, Chain: 4, FrameLen: 64}},
		run: runLatencyLadder,
	},
	{
		name:   "suite_quick",
		why:    "Figs. 1, 4a-c and Tables 3, 4 of `swbench all -quick` through the campaign orchestrator with a cold disk cache: 284 short cells, per-cell fixed cost dominates",
		window: core.Quick.Duration, warmup: core.Quick.Warmup,
		groups: []string{"fig1", "fig4a", "fig4b", "fig4c", "table3", "table4"},
		shape: shape{frameLen: 64, flows: 1,
			largest: core.Config{Switch: "vpp", Scenario: core.Loopback, Chain: 4, FrameLen: 64}},
		cached: true,
		run:    runSuiteQuick,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// allGroups lists every workload's groups in declaration order; a traced
// run reports each, 0 for the groups of other workloads.
func allGroups() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.groups...)
	}
	return out
}

func fixedLabel(l string) func(core.Config) string {
	return func(core.Config) string { return l }
}

// throughputRefs collects the points of a throughput grid the paper's
// prose states a value for.
func throughputRefs(cells []cell) []refPoint {
	var refs []refPoint
	for _, c := range cells {
		if c.err != nil {
			continue
		}
		pt := core.ThroughputPoint{Switch: c.cfg.Switch, FrameLen: c.cfg.FrameLen, Bidir: c.cfg.Bidir}
		if want, ok := core.PaperThroughputFor(c.cfg.Scenario, pt); ok {
			refs = append(refs, refPoint{sim: c.res.Gbps, paper: want})
		}
	}
	return refs
}

func runP2PWire(r *cellRunner, o core.RunOpts) ([]refPoint, error) {
	specs, err := core.FigureSpecs("4a", o)
	if err != nil {
		return nil, err
	}
	r.label = func(c core.Config) string { return fmt.Sprintf("%dB", c.FrameLen) }
	return throughputRefs(r.run(specs)), nil
}

func runGuestChain(r *cellRunner, o core.RunOpts) ([]refPoint, error) {
	kinds := []struct {
		label string
		scn   core.ScenarioKind
		chain int
	}{
		{"p2v", core.P2V, 1}, {"v2v", core.V2V, 1},
		{"lb1", core.Loopback, 1}, {"lb2", core.Loopback, 2}, {"lb4", core.Loopback, 4},
	}
	var refs []refPoint
	for _, k := range kinds {
		var specs []core.Config
		for _, size := range []int{64, 1024} {
			for _, name := range core.Switches {
				specs = append(specs, o.Apply(core.Config{
					Switch: name, Scenario: k.scn, Chain: k.chain, FrameLen: size,
				}))
			}
		}
		r.label = fixedLabel(k.label)
		refs = append(refs, throughputRefs(r.run(specs))...)
	}
	return refs, nil
}

// churnProbeEvery is the probe interval of the churn figure family
// (core keeps its copy unexported).
const churnProbeEvery = 100 * units.Microsecond

// churnSwitches are the switches whose data plane takes rule updates at
// runtime (Table 1); the others would only return ErrNoRuntimeRules.
var churnSwitches = []string{"ovs", "vpp", "t4p4s", "fastclick"}

func runFlowChurn(r *cellRunner, o core.RunOpts) ([]refPoint, error) {
	r.label = func(c core.Config) string {
		switch c.RuleUpdateRate {
		case 0:
			return "upd0"
		case 10000:
			return "upd10k"
		default:
			return "upd100k"
		}
	}
	// Single-flow, update-free anchors: the only cells of this workload
	// the paper states a value for, so accuracy is defined here too.
	var anchors []core.Config
	for _, name := range churnSwitches {
		anchors = append(anchors, o.Apply(core.Config{
			Switch: name, Scenario: core.P2P, FrameLen: 64, ProbeEvery: churnProbeEvery,
		}))
	}
	refs := throughputRefs(r.run(anchors))

	var specs []core.Config
	for _, skew := range []float64{0, 1.1} {
		for _, rate := range []float64{0, 10000, 100000} {
			for _, name := range churnSwitches {
				for _, flows := range []int{512, 8192, 32768} {
					specs = append(specs, o.Apply(core.Config{
						Switch: name, Scenario: core.P2P, FrameLen: 64,
						Flows: flows, ZipfSkew: skew, RuleUpdateRate: rate,
						ProbeEvery: churnProbeEvery,
					}))
				}
			}
		}
	}
	r.run(specs)
	return refs, nil
}

func runLatencyLadder(r *cellRunner, o core.RunOpts) ([]refPoint, error) {
	type column struct {
		sw, label string
		cfg       core.Config
	}
	var cols []column
	var sat []core.Config
	for _, name := range core.Switches {
		for _, c := range core.Table3Columns() {
			cfg := c.Cfg
			cfg.Switch = name
			cfg = o.Apply(cfg)
			cols = append(cols, column{name, c.Label, cfg})
			sat = append(sat, core.RPlusConfig(cfg))
		}
	}
	r.label = fixedLabel("sat")
	satCells := r.run(sat)

	var refs []refPoint
	for li, load := range core.Table3Loads {
		var specs []core.Config
		var want []float64
		for i, c := range cols {
			if satCells[i].err != nil {
				continue // unsupported chain length: no ladder
			}
			rPlus := satCells[i].res.Dirs[0].Mpps * 1e6
			specs = append(specs, core.LatencyConfig(c.cfg, rPlus, load))
			want = append(want, core.PaperTable3[c.sw][c.label][li])
		}
		r.label = fixedLabel(fmt.Sprintf("l%03.0f", load*100))
		for i, c := range r.run(specs) {
			if c.err == nil && want[i] > 0 {
				refs = append(refs, refPoint{sim: c.res.Latency.MeanUs, paper: want[i]})
			}
		}
	}
	return refs, nil
}

func runSuiteQuick(r *cellRunner, o core.RunOpts) ([]refPoint, error) {
	var refs []refPoint
	r.label = fixedLabel("fig1")
	if _, err := core.Figure1On(r, o); err != nil {
		return nil, err
	}
	// Figs. 5 and 6, the loopback sweeps, are left out: their 210 cells
	// would double the pass, a run would fit three passes where it fits
	// six, and Table 3 and guest_chain already run loopback chains.
	for _, id := range []string{"4a", "4b", "4c"} {
		r.label = fixedLabel("fig" + id)
		fig, err := core.FigureOn(r, id, o)
		if err != nil {
			return nil, err
		}
		for _, pt := range fig.Pts {
			if want, ok := core.PaperThroughputFor(fig.Scenario, pt); ok && !pt.Unsupported {
				refs = append(refs, refPoint{sim: pt.Gbps, paper: want})
			}
		}
	}
	r.label = fixedLabel("table3")
	t3, err := core.Table3On(r, o)
	if err != nil {
		return nil, err
	}
	for _, c := range t3 {
		want, ok := core.PaperTable3[c.Switch][c.Scenario]
		if !ok || c.Unsupported {
			continue
		}
		for li := range want {
			refs = append(refs, refPoint{sim: c.MeanUs[li], paper: want[li]})
		}
	}
	r.label = fixedLabel("table4")
	t4, err := core.Table4On(r, o)
	if err != nil {
		return nil, err
	}
	for _, row := range t4 {
		refs = append(refs, refPoint{sim: row.MeanUs, paper: core.PaperTable4[row.Switch]})
	}
	return refs, nil
}

// expectedErr reports whether a cell error is a documented per-switch
// limit — the paper prints those cells as "-" — rather than a failure.
func expectedErr(err error) bool {
	return errors.Is(err, core.ErrChainTooLong) || errors.Is(err, core.ErrNoRuntimeRules)
}

// paperErrPct is the accuracy metric: the median over reference points
// of |simulated - paper| / paper, in percent.
func paperErrPct(refs []refPoint) float64 {
	errs := make([]float64, 0, len(refs))
	for _, p := range refs {
		d := p.sim - p.paper
		if d < 0 {
			d = -d
		}
		errs = append(errs, 100*d/p.paper)
	}
	return median(errs)
}
