package core

import (
	"errors"
	"fmt"

	"repro/internal/stats"
	"repro/internal/switches/switchdef"
	"repro/internal/units"
)

// Switches lists the seven evaluated switches in the paper's plotting order.
var Switches = []string{"bess", "fastclick", "vpp", "snabb", "ovs", "vale", "t4p4s"}

// FrameSizes are the evaluated packet sizes (§5.2).
var FrameSizes = []int{64, 256, 1024}

// RunOpts sets the per-measurement simulation windows. The zero value uses
// the defaults (20 ms window, 4 ms warmup); Quick shrinks runs for CI.
type RunOpts struct {
	Duration, Warmup units.Time
	Seed             uint64
}

// Quick is a fast profile for tests and demos.
var Quick = RunOpts{Duration: 4 * units.Millisecond, Warmup: 2 * units.Millisecond}

// Full is the profile used for EXPERIMENTS.md numbers.
var Full = RunOpts{Duration: 20 * units.Millisecond, Warmup: 4 * units.Millisecond}

func (o RunOpts) apply(cfg Config) Config {
	if o.Duration != 0 {
		cfg.Duration = o.Duration
	}
	if o.Warmup != 0 {
		cfg.Warmup = o.Warmup
	}
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	return cfg
}

// Apply merges the options into a config, exported for campaign builders.
func (o RunOpts) Apply(cfg Config) Config { return o.apply(cfg) }

// ThroughputPoint is one bar of a throughput figure.
type ThroughputPoint struct {
	Switch   string
	Display  string
	FrameLen int
	Chain    int // loopback only
	Bidir    bool
	Gbps     float64
	Mpps     float64
	// Unsupported marks configurations the switch cannot run (BESS with
	// more than 3 VMs); the paper renders these as missing bars.
	Unsupported bool
}

// Figure is a reproduced throughput figure: a series of points.
type Figure struct {
	ID       string
	Title    string
	Scenario ScenarioKind
	Pts      []ThroughputPoint
}

// throughputSpecs enumerates the measurement grid of one throughput figure
// in the paper's rendering order (chain, direction, frame size, switch).
func throughputSpecs(scn ScenarioKind, chains []int, dirs []bool, o RunOpts) []Config {
	var specs []Config
	for _, chain := range chains {
		for _, bidir := range dirs {
			for _, size := range FrameSizes {
				for _, name := range Switches {
					specs = append(specs, o.apply(Config{
						Switch: name, Scenario: scn, Chain: chain,
						FrameLen: size, Bidir: bidir,
					}))
				}
			}
		}
	}
	return specs
}

func throughputFigureOn(r Runner, id, title string, scn ScenarioKind, chains []int, dirs []bool, o RunOpts) (*Figure, error) {
	fig := &Figure{ID: id, Title: title, Scenario: scn}
	specs := throughputSpecs(scn, chains, dirs, o)
	outs := r.RunAll(specs)
	if err := firstErr(outs); err != nil {
		return nil, err
	}
	for i, cfg := range specs {
		info, err := switchdef.Lookup(cfg.Switch)
		if err != nil {
			return nil, err
		}
		pt := ThroughputPoint{
			Switch: cfg.Switch, Display: info.Display,
			FrameLen: cfg.FrameLen, Chain: cfg.Chain, Bidir: cfg.Bidir,
		}
		if errors.Is(outs[i].Err, ErrChainTooLong) {
			pt.Unsupported = true
		} else {
			pt.Gbps, pt.Mpps = outs[i].Result.Gbps, outs[i].Result.Mpps
		}
		fig.Pts = append(fig.Pts, pt)
	}
	return fig, nil
}

var bothDirs = []bool{false, true}

// Chains is the loopback chain-length sweep (§5.2: 1 to 5 VNFs).
var Chains = []int{1, 2, 3, 4, 5}

// figureGrids maps throughput figure ids to their grids.
var figureGrids = map[string]struct {
	Title  string
	Scn    ScenarioKind
	Chains []int
	Dirs   []bool
}{
	"4a": {"Throughput in physical-to-physical (p2p)", P2P, []int{1}, bothDirs},
	"4b": {"Throughput in physical-to-virtual (p2v)", P2V, []int{1}, bothDirs},
	"4c": {"Throughput in virtual-to-virtual (v2v)", V2V, []int{1}, bothDirs},
	"5":  {"Unidirectional throughput of loopback", Loopback, Chains, []bool{false}},
	"6":  {"Bidirectional throughput of loopback", Loopback, Chains, []bool{true}},
}

// FigureSpecs returns the flat measurement grid behind throughput figure
// id ("4a", "4b", "4c", "5", "6") — the spec set a campaign executes.
func FigureSpecs(id string, o RunOpts) ([]Config, error) {
	g, ok := figureGrids[id]
	if !ok {
		return nil, fmt.Errorf("core: no spec grid for figure %q", id)
	}
	return throughputSpecs(g.Scn, g.Chains, g.Dirs, o), nil
}

// FigureOn reproduces throughput figure id on runner r.
func FigureOn(r Runner, id string, o RunOpts) (*Figure, error) {
	g, ok := figureGrids[id]
	if !ok {
		return nil, fmt.Errorf("core: unknown throughput figure %q", id)
	}
	return throughputFigureOn(r, id, g.Title, g.Scn, g.Chains, g.Dirs, o)
}

// Figure1Point is one switch's dot on the paper's opening scatter plots:
// bidirectional p2p 64B throughput vs. RTT at 0.95·R⁺.
type Figure1Point struct {
	Switch  string
	Display string
	Gbps    float64
	MeanUs  float64
	StdUs   float64
}

// Figure1 reproduces the scatter data of Fig. 1 (both panels share it).
func Figure1(o RunOpts) ([]Figure1Point, error) { return Figure1On(SerialRunner{}, o) }

// Figure1On is Figure1 on an explicit runner. It runs two waves: first the
// saturating bidirectional p2p runs (one per switch, all independent),
// then the latency runs at 95% of each measured rate.
func Figure1On(r Runner, o RunOpts) ([]Figure1Point, error) {
	bases := make([]Config, len(Switches))
	for i, name := range Switches {
		bases[i] = o.apply(Config{Switch: name, Scenario: P2P, FrameLen: 64, Bidir: true})
	}
	satOuts := r.RunAll(bases)
	if err := firstErr(satOuts); err != nil {
		return nil, err
	}
	// Latency at 95% of the measured bidirectional rate, per dir.
	latSpecs := make([]Config, len(Switches))
	rps := make([]float64, len(Switches))
	for i := range bases {
		rps[i] = satOuts[i].Result.Dirs[0].Mpps * 1e6
		latSpecs[i] = LatencyConfig(bases[i], rps[i], 0.95)
	}
	latOuts := r.RunAll(latSpecs)
	if err := firstErr(latOuts); err != nil {
		return nil, err
	}
	var out []Figure1Point
	for i, name := range Switches {
		info, _ := switchdef.Lookup(name)
		out = append(out, Figure1Point{
			Switch: name, Display: info.Display,
			Gbps:   satOuts[i].Result.Gbps,
			MeanUs: latOuts[i].Result.Latency.MeanUs,
			StdUs:  latOuts[i].Result.Latency.StdUs,
		})
	}
	return out, nil
}

// Table3Scenarios are the latency scenarios of Table 3 in column order.
type Table3Scenario struct {
	Label string
	Cfg   Config
}

// Table3Columns returns the p2p + 1..4-VNF loopback scenario set.
func Table3Columns() []Table3Scenario {
	cols := []Table3Scenario{{Label: "p2p", Cfg: Config{Scenario: P2P, FrameLen: 64}}}
	for n := 1; n <= 4; n++ {
		cols = append(cols, Table3Scenario{
			Label: fmt.Sprintf("%d-VNF loopback", n),
			Cfg:   Config{Scenario: Loopback, Chain: n, FrameLen: 64},
		})
	}
	return cols
}

// Table3Cell is one (switch, scenario) group of Table 3: mean RTT at the
// three loads.
type Table3Cell struct {
	Switch      string
	Scenario    string
	MeanUs      [3]float64 // at 0.10, 0.50, 0.99 · R⁺
	Unsupported bool
}

// Table3 reproduces the RTT latency table.
func Table3(o RunOpts) ([]Table3Cell, error) { return Table3On(SerialRunner{}, o) }

// Table3On is Table3 on an explicit runner. Wave one runs every cell's
// saturating R⁺ estimation; wave two fans out the three rate-controlled
// latency runs per supported cell.
func Table3On(r Runner, o RunOpts) ([]Table3Cell, error) {
	type cellDef struct {
		cfg  Config
		cell Table3Cell
	}
	var cells []cellDef
	for _, name := range Switches {
		for _, col := range Table3Columns() {
			cfg := col.Cfg
			cfg.Switch = name
			cells = append(cells, cellDef{
				cfg:  o.apply(cfg),
				cell: Table3Cell{Switch: name, Scenario: col.Label},
			})
		}
	}
	satSpecs := make([]Config, len(cells))
	for i, c := range cells {
		satSpecs[i] = RPlusConfig(c.cfg)
	}
	satOuts := r.RunAll(satSpecs)
	if err := firstErr(satOuts); err != nil {
		return nil, err
	}
	// Supported cells fan out one latency spec per load level.
	var latSpecs []Config
	type latRef struct{ cell, load int }
	var refs []latRef
	rps := make([]float64, len(cells))
	for i, c := range cells {
		if errors.Is(satOuts[i].Err, ErrChainTooLong) {
			cells[i].cell.Unsupported = true
			continue
		}
		rp, err := rPlusFromResult(c.cfg, satOuts[i].Result)
		if err != nil {
			return nil, err
		}
		rps[i] = rp
		for li, load := range Table3Loads {
			latSpecs = append(latSpecs, LatencyConfig(c.cfg, rp, load))
			refs = append(refs, latRef{cell: i, load: li})
		}
	}
	latOuts := r.RunAll(latSpecs)
	if err := firstErr(latOuts); err != nil {
		return nil, err
	}
	for j, ref := range refs {
		if err := latOuts[j].Err; err != nil {
			return nil, err
		}
		cells[ref.cell].cell.MeanUs[ref.load] = latOuts[j].Result.Latency.MeanUs
	}
	out := make([]Table3Cell, len(cells))
	for i, c := range cells {
		out[i] = c.cell
	}
	return out, nil
}

// Table4Row is one switch's v2v RTT at 1 Mpps (software timestamping).
type Table4Row struct {
	Switch  string
	Display string
	MeanUs  float64
	Summary stats.Summary
}

// Table4Specs returns the flat v2v software-timestamping latency grid.
func Table4Specs(o RunOpts) []Config {
	specs := make([]Config, len(Switches))
	for i, name := range Switches {
		specs[i] = o.apply(Config{
			Switch: name, Scenario: V2V, LatencyTopology: true,
			FrameLen:   64,
			Rate:       units.RateForPPS(1e6, 64), // "672 Mbps (=1 Mpps)"
			ProbeEvery: DefaultProbeEvery,
		})
	}
	return specs
}

// Table4 reproduces the v2v latency table.
func Table4(o RunOpts) ([]Table4Row, error) { return Table4On(SerialRunner{}, o) }

// Table4On is Table4 on an explicit runner.
func Table4On(r Runner, o RunOpts) ([]Table4Row, error) {
	specs := Table4Specs(o)
	outs := r.RunAll(specs)
	if err := firstErr(outs); err != nil {
		return nil, err
	}
	var out []Table4Row
	for i, name := range Switches {
		res := outs[i].Result
		info, _ := switchdef.Lookup(name)
		out = append(out, Table4Row{Switch: name, Display: info.Display,
			MeanUs: res.Latency.MeanUs, Summary: res.Latency})
	}
	return out, nil
}
