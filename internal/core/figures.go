package core

import (
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

// ThroughputPoint is one point of a grid figure: a bar of a throughput
// figure, or a point of a scaling or churn curve.
type ThroughputPoint struct {
	Switch   string
	FrameLen int
	Chain    int // loopback only
	Bidir    bool
	// Dispatch is the curve a scaling point lies on. Config cannot say: a
	// curve's 1-core point is the paper's single-core methodology, which
	// has no dispatch dimension.
	Dispatch string
	Gbps     float64
	Mpps     float64
	// Unsupported marks configurations the switch cannot run (BESS with
	// more than 3 VMs, VALE on several cores, rule updates on a
	// fixed-function switch); the paper renders these as missing bars.
	Unsupported bool
	// Config is the cell's canonical config and Result its measurement
	// (zero when Unsupported): the axes and metrics a family reports
	// beyond the fields above — and the switch's display name — are read
	// from these.
	Config Config
	Result Result
}

// Figure is a reproduced grid figure: a series of points.
type Figure struct {
	ID       string
	Title    string
	Scenario ScenarioKind
	Pts      []ThroughputPoint
}

// gridFamily is one grid figure as data: what to measure and how its points
// read as text and as CSV. FigureSpecs, FigureOn, RenderFigure and
// WriteFigureCSV serve every family through this table.
type gridFamily struct {
	id, title string
	header    string // first line of the text rendering
	scenario  ScenarioKind
	extension bool // beyond the paper's evaluation; `swbench all` skips it
	// points enumerates the grid in campaign and CSV order, each point
	// holding the Config to run and any coordinate Config cannot express.
	points func(o RunOpts) []ThroughputPoint
	// caption names the table a point belongs to and column its column
	// there; rows are switches. Tables, columns and rows render in
	// first-seen order.
	caption, column func(pt *ThroughputPoint) string
	// cell formats a supported point, right-aligned to width.
	cell  func(pt *ThroughputPoint) string
	width int
	// paper, if set, is the paper's value for a point under -compare.
	paper func(pt *ThroughputPoint) (float64, bool)
	csv   []csvColumn
}

// csvColumn is one column of a family's CSV form.
type csvColumn struct {
	name  string
	value func(pt *ThroughputPoint) string
}

func pointConfigs(pts []ThroughputPoint) []Config {
	specs := make([]Config, len(pts))
	for i := range pts {
		specs[i] = pts[i].Config
	}
	return specs
}

var bothDirs = []bool{false, true}

// Chains is the loopback chain-length sweep (§5.2: 1 to 5 VNFs).
var Chains = []int{1, 2, 3, 4, 5}

// throughputFamily is one of the paper's throughput figures: scenario scn
// over chains × directions × frame sizes × switches, in the paper's
// rendering order.
func throughputFamily(id, title string, scn ScenarioKind, chains []int, dirs []bool) *gridFamily {
	return &gridFamily{
		id: id, title: title, scenario: scn,
		header: fmt.Sprintf("Figure %s: %s (Gbps)", id, title),
		points: func(o RunOpts) []ThroughputPoint {
			pts := make([]ThroughputPoint, 0, len(chains)*len(dirs)*len(FrameSizes)*len(Switches))
			for _, chain := range chains {
				for _, bidir := range dirs {
					for _, size := range FrameSizes {
						for _, name := range Switches {
							pts = append(pts, ThroughputPoint{Config: o.apply(Config{
								Switch: name, Scenario: scn, Chain: chain,
								FrameLen: size, Bidir: bidir,
							})})
						}
					}
				}
			}
			return pts
		},
		caption: func(pt *ThroughputPoint) string {
			dir := "unidirectional"
			if pt.Bidir {
				dir = "bidirectional"
			}
			if scn == Loopback {
				return fmt.Sprintf("%s, %d-VNF chain", dir, pt.Chain)
			}
			return dir
		},
		column: func(pt *ThroughputPoint) string { return fmt.Sprintf("%dB", pt.FrameLen) },
		cell:   gbpsCell, width: 8,
		paper: func(pt *ThroughputPoint) (float64, bool) { return PaperThroughputFor(scn, *pt) },
		csv: []csvColumn{
			colSwitch,
			{"scenario", func(*ThroughputPoint) string { return scn.String() }},
			{"chain", func(pt *ThroughputPoint) string { return fmt.Sprint(pt.Chain) }},
			{"bidir", func(pt *ThroughputPoint) string { return fmt.Sprint(pt.Bidir) }},
			colFrameBytes, colGbps, colMpps, colUnsupported,
		},
	}
}

func gbpsCell(pt *ThroughputPoint) string { return fmt.Sprintf("%.2f", pt.Gbps) }

// CSV columns more than one family reports.
var (
	colSwitch      = csvColumn{"switch", func(pt *ThroughputPoint) string { return pt.Switch }}
	colFrameBytes  = csvColumn{"frame_bytes", func(pt *ThroughputPoint) string { return fmt.Sprint(pt.FrameLen) }}
	colGbps        = csvColumn{"gbps", func(pt *ThroughputPoint) string { return fmt.Sprintf("%.4f", pt.Gbps) }}
	colMpps        = csvColumn{"mpps", func(pt *ThroughputPoint) string { return fmt.Sprintf("%.4f", pt.Mpps) }}
	colUnsupported = csvColumn{"unsupported", func(pt *ThroughputPoint) string { return fmt.Sprint(pt.Unsupported) }}
)

// gridFamilies lists every grid figure: the paper's throughput figures in
// its order, then the extensions.
var gridFamilies = []*gridFamily{
	throughputFamily("4a", "Throughput in physical-to-physical (p2p)", P2P, []int{1}, bothDirs),
	throughputFamily("4b", "Throughput in physical-to-virtual (p2v)", P2V, []int{1}, bothDirs),
	throughputFamily("4c", "Throughput in virtual-to-virtual (v2v)", V2V, []int{1}, bothDirs),
	throughputFamily("5", "Unidirectional throughput of loopback", Loopback, Chains, []bool{false}),
	throughputFamily("6", "Bidirectional throughput of loopback", Loopback, Chains, []bool{true}),
	scalingFamily,
	churnFamily,
}

func lookupGrid(id string) (*gridFamily, error) {
	for _, f := range gridFamilies {
		if f.id == id {
			return f, nil
		}
	}
	return nil, fmt.Errorf("core: no grid figure %q", id)
}

// FigureSpecs returns the flat measurement grid behind grid figure id
// ("4a", "4b", "4c", "5", "6", "scaling", "churn") — the spec set a
// campaign executes.
func FigureSpecs(id string, o RunOpts) ([]Config, error) {
	f, err := lookupGrid(id)
	if err != nil {
		return nil, err
	}
	return pointConfigs(f.points(o)), nil
}

// FigureOn reproduces grid figure id on runner r.
func FigureOn(r Runner, id string, o RunOpts) (*Figure, error) {
	f, err := lookupGrid(id)
	if err != nil {
		return nil, err
	}
	return f.run(r, o)
}

func (f *gridFamily) run(r Runner, o RunOpts) (*Figure, error) {
	pts := f.points(o)
	outs := r.RunAll(pointConfigs(pts))
	if err := firstErr(outs); err != nil {
		return nil, err
	}
	for i := range pts {
		pt := &pts[i]
		pt.Config = pt.Config.Canonical()
		pt.Switch, pt.FrameLen = pt.Config.Switch, pt.Config.FrameLen
		pt.Chain, pt.Bidir = pt.Config.Chain, pt.Config.Bidir
		if Unsupported(outs[i].Err) {
			pt.Unsupported = true
			continue
		}
		pt.Result = outs[i].Result
		pt.Gbps, pt.Mpps = pt.Result.Gbps, pt.Result.Mpps
	}
	return &Figure{ID: f.id, Title: f.title, Scenario: f.scenario, Pts: pts}, nil
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

// Figure1On reproduces the scatter data of Fig. 1 (both panels share it)
// on runner r. It runs two waves: first the
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

// Table3On reproduces the RTT latency table on runner r. Wave one runs
// every cell's saturating R⁺ estimation; wave two fans out the three
// rate-controlled latency runs per supported cell.
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
		if Unsupported(satOuts[i].Err) {
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

// Table4On reproduces the v2v latency table on runner r.
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
