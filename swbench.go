package swbench

import (
	"context"
	"io"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/fabric"
	"repro/internal/pkt"
	"repro/internal/stats"
	"repro/internal/switches/switchdef"
	"repro/internal/topo"
	"repro/internal/units"
)

// Core measurement types.
type (
	// Config describes one measurement run.
	Config = core.Config
	// Result is one run's measurements.
	Result = core.Result
	// ScenarioKind selects one of the paper's four test scenarios.
	ScenarioKind = core.ScenarioKind
	// RunOpts sets simulation window lengths for experiment suites.
	RunOpts = core.RunOpts
	// LatencyPoint is a mean-RTT measurement at a fraction of R⁺.
	LatencyPoint = core.LatencyPoint
	// Summary is a latency distribution snapshot.
	Summary = stats.Summary
)

// The four test scenarios (paper Fig. 2), plus Custom, which runs a
// user-supplied Topology graph.
const (
	P2P      = core.P2P
	P2V      = core.P2V
	V2V      = core.V2V
	Loopback = core.Loopback
	Custom   = core.Custom
)

// Topology IR: every scenario — the paper's four and any custom wiring —
// is a declarative graph of typed nodes (physical port pairs, guest
// interfaces, VNFs, generators, sinks, monitors, a controller) and
// cross-connect edges between SUT ports, endpoints naming their port in
// their own fields, that one compiler materializes into a testbed. Config.Graph returns a named scenario's graph; a Custom
// scenario runs Config.Topology directly (see internal/topo and
// examples/customtopo).
type (
	// Topology is a declarative testbed graph.
	Topology = topo.Graph
	// TopologyNode is one typed node of a Topology.
	TopologyNode = topo.Node
	// TopologyEdge is one cross-connect of a Topology.
	TopologyEdge = topo.Edge
	// TopologyPlan is a compiled topology: the exact port indices,
	// cross-connects, steering, and MAC rewrites the testbed will install.
	TopologyPlan = topo.Plan
)

// ParseTopology parses and validates a JSON topology graph.
func ParseTopology(data []byte) (*Topology, error) { return topo.Parse(data) }

// PlanTopology compiles a validated graph into its materialization plan
// without building a testbed.
func PlanTopology(g *Topology) (*TopologyPlan, error) { return topo.NewPlan(g) }

// TopologyDOT renders a topology graph as Graphviz DOT.
func TopologyDOT(g *Topology) (string, error) { return topo.DOT(g) }

// Time and rate units (picosecond-resolution simulated time).
type (
	// Time is simulated time in picoseconds.
	Time = units.Time
	// BitRate is an offered-load rate in bits per second.
	BitRate = units.BitRate
)

// Common constants re-exported for configuration.
const (
	Microsecond = units.Microsecond
	Millisecond = units.Millisecond
	Gbps        = units.Gbps
	TenGigE     = units.TenGigE
)

// ErrChainTooLong reports a switch-specific VM-count limit (BESS's QEMU
// incompatibility).
var ErrChainTooLong = core.ErrChainTooLong

// ErrNoMultiCore reports a switch that cannot spread its data plane over
// multiple cores (VALE's interrupt-driven kernel context).
var ErrNoMultiCore = core.ErrNoMultiCore

// Multi-core dispatch modes and RSS steering policies for Config.Dispatch
// and Config.RSSPolicy (see internal/multicore).
const (
	DispatchRSS   = core.DispatchRSS
	DispatchRTC   = core.DispatchRTC
	RSSRoundRobin = core.RSSRoundRobin
	RSSFlowHash   = core.RSSFlowHash
)

// CoreUtil is one SUT core's busy fraction in a multi-core Result.
type CoreUtil = core.CoreUtil

// Run executes one measurement.
func Run(cfg Config) (Result, error) { return core.Run(cfg) }

// WindowPoint is one measurement window of a RunWindows series.
type WindowPoint = core.WindowPoint

// RunWindows measures cfg.Duration in n consecutive windows within a single
// simulation, exposing time dynamics (Snabb's JIT warmup, instability
// phases) that the aggregate hides.
func RunWindows(cfg Config, n int) ([]WindowPoint, Result, error) { return core.RunWindows(cfg, n) }

// Switches returns the seven evaluated switch names in the paper's order.
func Switches() []string { return append([]string(nil), core.Switches...) }

// SwitchInfo is the design-space taxonomy record for one switch (paper
// Table 1, plus Table 2 tunings and Table 5 use cases).
type SwitchInfo = switchdef.Info

// Info returns the taxonomy record for a registered switch.
func Info(name string) (SwitchInfo, error) { return switchdef.Lookup(name) }

// Methodology: R⁺ estimation and latency ladders (§5.3).
var Table3Loads = core.Table3Loads

// NDR types: the RFC 2544 non-drop-rate binary search, provided as the
// classical alternative the paper's footnote 3 argues against for software
// switches.
type (
	// NDRResult is the outcome of a non-drop-rate search.
	NDRResult = core.NDRResult
	// NDROptions tunes the search.
	NDROptions = core.NDROptions
)

// FindNDR runs the RFC 2544 binary search for cfg's scenario.
func FindNDR(cfg Config, opts NDROptions) (NDRResult, error) { return core.FindNDR(cfg, opts) }

// EstimateRPlus measures R⁺: the average throughput under saturating
// input, in packets/second.
func EstimateRPlus(cfg Config) (float64, error) { return core.EstimateRPlus(cfg) }

// MeasureLatencyAt measures RTT with offered load load·R⁺.
func MeasureLatencyAt(cfg Config, rPlusPPS, load float64) (LatencyPoint, error) {
	return core.MeasureLatencyAt(cfg, rPlusPPS, load)
}

// LatencyProfile runs a load ladder (e.g. Table3Loads) for one scenario.
func LatencyProfile(cfg Config, loads []float64) ([]LatencyPoint, error) {
	return core.LatencyProfile(cfg, loads)
}

// Experiment suites regenerating the paper's figures and tables.
type (
	// Figure is a reproduced grid figure (throughput, scaling, churn).
	Figure = core.Figure
	// Figure1Point is one dot of the paper's opening scatter plot.
	Figure1Point = core.Figure1Point
	// ThroughputPoint is one point of a grid figure.
	ThroughputPoint = core.ThroughputPoint
	// Table3Cell is one (switch, scenario) latency group of Table 3.
	Table3Cell = core.Table3Cell
	// Table4Row is one switch's v2v RTT (Table 4).
	Table4Row = core.Table4Row
	// Experiment is one entry of the evaluation registry.
	Experiment = core.Experiment
	// ExperimentReport is a completed experiment: Render prints it as
	// text, CSV writes its data.
	ExperimentReport = core.Report
)

// Experiments returns the evaluation registry: every figure and table in
// the paper's order (Tables 1–2, Fig. 1, Figs. 4a–6, Tables 3–5), then the
// scaling and churn extensions. Each entry runs on any Runner and reports
// as text and CSV; cmd/swbench's figure, table and all verbs are a lookup
// in this table.
func Experiments() []Experiment { return append([]Experiment(nil), core.Experiments...) }

// Run profiles.
var (
	// Quick shrinks simulation windows for demos and CI.
	Quick = core.Quick
	// Full is the profile behind EXPERIMENTS.md.
	Full = core.Full
)

// Campaign orchestration: every figure and table decomposes into
// independent deterministic simulations, and a Runner executes such a
// batch — serially (SerialRunner, the paper's original methodology) or
// fanned out over a bounded worker pool with a content-addressed result
// cache (NewOrchestrator). The *On suite functions below and every
// Experiment run their grids through an explicit runner.
type (
	// Runner executes a batch of independent measurement specs.
	Runner = core.Runner
	// SpecOutcome is one cell's result of a batch execution.
	SpecOutcome = core.SpecOutcome
	// Orchestrator is the parallel, cached, panic-isolating Runner.
	Orchestrator = campaign.Orchestrator
	// CampaignOptions configures an Orchestrator.
	CampaignOptions = campaign.Options
	// CampaignSpec is one named campaign cell.
	CampaignSpec = campaign.Spec
	// ExperimentCampaign is a named set of specs.
	ExperimentCampaign = campaign.Campaign
	// CampaignReport is a completed campaign.
	CampaignReport = campaign.Report
	// CampaignOutcome is one cell's execution record.
	CampaignOutcome = campaign.Outcome
	// CampaignEvent is one progress notification.
	CampaignEvent = campaign.Event
	// ResultCache is the content-addressed on-disk result cache.
	ResultCache = campaign.Cache
)

// SerialRunner runs batch specs one after another on the calling
// goroutine.
type SerialRunner = core.SerialRunner

// CampaignEventType classifies a campaign progress event.
type CampaignEventType = campaign.EventType

// The campaign progress event types.
const (
	CampaignCellStarted  = campaign.EventStarted
	CampaignCellFinished = campaign.EventFinished
	CampaignCellCached   = campaign.EventCached
	CampaignCellFailed   = campaign.EventFailed
)

// NewOrchestrator returns a campaign orchestrator; ctx cancels campaign
// execution between cells (nil means context.Background()).
func NewOrchestrator(ctx context.Context, opts CampaignOptions) *Orchestrator {
	return campaign.New(ctx, opts)
}

// OpenResultCache opens (creating if needed) a result cache directory.
func OpenResultCache(dir string) (*ResultCache, error) { return campaign.OpenCache(dir) }

// ResultStore is the content-addressed result store contract: the local
// on-disk ResultCache, the HTTP FabricCacheClient, and the tiered
// composition of both all implement it, and CampaignOptions.Cache accepts
// any of them.
type ResultStore = campaign.Store

// CampaignCacheKey returns a config's content address (canonical config +
// cost-model version) — the key the result cache, the cache server, and
// the fabric's version-skew handshake all share.
func CampaignCacheKey(cfg Config) string { return campaign.CacheKey(cfg) }

// CachePruneStats summarizes one ResultCache.Prune pass.
type CachePruneStats = campaign.PruneStats

// Campaign fabric: a coordinator leases campaign cells to worker daemons
// over HTTP (work-stealing pull model with lease expiry) and a cache
// server exports the content-addressed result store fleet-wide. The
// fleet is a cell executor behind the one campaign loop —
// NewFabricRunner is an Orchestrator whose cells run on the fleet — so a
// fabric run is byte-identical to a local run of the same campaign (see
// internal/fabric).
type (
	// FabricCoordinator shards cells to workers over HTTP.
	FabricCoordinator = fabric.Coordinator
	// FabricCoordinatorOptions configures a coordinator.
	FabricCoordinatorOptions = fabric.CoordinatorOptions
	// FabricCoordinatorStatus is the coordinator's /status snapshot.
	FabricCoordinatorStatus = fabric.CoordinatorStatus
	// FabricWorkerOptions configures one worker daemon.
	FabricWorkerOptions = fabric.WorkerOptions
	// FabricCacheServer exports a ResultCache over HTTP.
	FabricCacheServer = fabric.CacheServer
	// FabricCacheClient is the ResultStore view of a remote cache server.
	FabricCacheClient = fabric.CacheClient
	// FabricCacheStats is a cache server's /stats counters.
	FabricCacheStats = fabric.CacheStats
)

// ErrFabricVersionSkew reports a worker whose content address for a cell
// disagrees with the coordinator's (cost model or canonicalization skew).
var ErrFabricVersionSkew = fabric.ErrVersionSkew

// NewFabricCoordinator returns an empty coordinator; it implements
// http.Handler and runs cells through Execute (as NewFabricRunner does).
func NewFabricCoordinator(opts FabricCoordinatorOptions) *FabricCoordinator {
	return fabric.NewCoordinator(opts)
}

// NewFabricRunner returns the Orchestrator that executes cells on the
// coordinator's fleet, with no cap on cells in flight (opts.Execute and
// opts.Workers are overridden).
func NewFabricRunner(ctx context.Context, co *FabricCoordinator, opts CampaignOptions) *Orchestrator {
	return fabric.NewRunner(ctx, co, opts)
}

// RunFabricWorker joins a coordinator and executes leased cells until it
// signals shutdown or ctx is cancelled.
func RunFabricWorker(ctx context.Context, opts FabricWorkerOptions) error {
	return fabric.RunWorker(ctx, opts)
}

// NewFabricCacheServer wraps an open result cache in the HTTP service.
func NewFabricCacheServer(cache *ResultCache) *FabricCacheServer {
	return fabric.NewCacheServer(cache)
}

// NewFabricCacheClient returns a ResultStore backed by a cache server.
func NewFabricCacheClient(base string) *FabricCacheClient { return fabric.NewCacheClient(base) }

// NewTieredStore composes a local and a remote result store (reads check
// local first, remote hits write through; writes go to both). Either may
// be nil; both nil returns nil.
func NewTieredStore(local, remote ResultStore) ResultStore { return fabric.NewTiered(local, remote) }

// BuiltinCampaign returns a named experiment campaign (see
// BuiltinCampaignNames) with o applied to every spec.
func BuiltinCampaign(name string, o RunOpts) (ExperimentCampaign, error) {
	return campaign.Builtin(name, o)
}

// BuiltinCampaignNames lists the registered campaign names.
func BuiltinCampaignNames() []string { return campaign.BuiltinNames() }

// WriteCampaignArtifacts writes a campaign's JSONL artifact log.
func WriteCampaignArtifacts(w io.Writer, rep *CampaignReport) error {
	return campaign.WriteArtifacts(w, rep)
}

// Figure1On reproduces the scatter data of the paper's Fig. 1 on runner r.
func Figure1On(r Runner, o RunOpts) ([]Figure1Point, error) { return core.Figure1On(r, o) }

// FigureOn reproduces grid figure id — "4a", "4b", "4c", "5", "6" (p2p,
// p2v, v2v, and uni-/bidirectional loopback chains), "scaling" (throughput
// vs. SUT cores) or "churn" (throughput and RTT vs. active flows and
// rule-update rate) — on runner r; SerialRunner{} is the paper's
// one-cell-at-a-time methodology.
func FigureOn(r Runner, id string, o RunOpts) (*Figure, error) { return core.FigureOn(r, id, o) }

// Table3On reproduces the RTT latency table on runner r.
func Table3On(r Runner, o RunOpts) ([]Table3Cell, error) { return core.Table3On(r, o) }

// Table4On reproduces the v2v latency table on runner r.
func Table4On(r Runner, o RunOpts) ([]Table4Row, error) { return core.Table4On(r, o) }

// Renderers (text tables; also the source of EXPERIMENTS.md).
func RenderFigure(w io.Writer, fig *Figure, compare bool) { core.RenderFigure(w, fig, compare) }
func RenderFigure1(w io.Writer, pts []Figure1Point)       { core.RenderFigure1(w, pts) }
func RenderTable1(w io.Writer)                            { core.RenderTable1(w) }
func RenderTable2(w io.Writer)                            { core.RenderTable2(w) }
func RenderTable3(w io.Writer, cells []Table3Cell, compare bool) {
	core.RenderTable3(w, cells, compare)
}
func RenderTable4(w io.Writer, rows []Table4Row, compare bool) { core.RenderTable4(w, rows, compare) }
func RenderTable5(w io.Writer)                                 { core.RenderTable5(w) }
func RenderResult(w io.Writer, res Result)                     { core.RenderResult(w, res) }

// CSV exports, for plotting with external tools.
func WriteFigureCSV(w io.Writer, fig *Figure) error         { return core.WriteFigureCSV(w, fig) }
func WriteFigure1CSV(w io.Writer, pts []Figure1Point) error { return core.WriteFigure1CSV(w, pts) }
func WriteTable3CSV(w io.Writer, cells []Table3Cell) error  { return core.WriteTable3CSV(w, cells) }

// Extension point: implement and register your own switch data plane, then
// benchmark it with the same methodology (see examples/customswitch).
type (
	// Switch is the System Under Test contract.
	Switch = switchdef.Switch
	// DevPort is a device a switch data plane drives.
	DevPort = switchdef.DevPort
	// Env is what a switch factory receives from the testbed.
	Env = switchdef.Env
	// Meter accounts the simulated CPU cycles a data plane consumes.
	Meter = cost.Meter
	// Buf is a packet buffer.
	Buf = pkt.Buf
	// PortKind distinguishes physical, vhost-user, and ptnet attachments.
	PortKind = switchdef.PortKind
	// SwitchCounters is the data-plane ledger a Switch embeds: it
	// provides Counts, and Transmit / Discard book forwarded and dropped
	// frames.
	SwitchCounters = switchdef.Counters
)

// Port kinds.
const (
	PhysKind  = switchdef.PhysKind
	VhostKind = switchdef.VhostKind
	PtnetKind = switchdef.PtnetKind
)

// Unified control plane: every Switch also implements Programmer, a typed
// rule surface (install/revoke) that CrossConnect, the sdnrules example,
// and the mid-run churn controller all drive; each switch keeps its
// program only in its own tables. Switches whose data plane cannot take
// runtime updates embed NoRuntimeRules and report ErrNoRuntimeRules.
type (
	// Programmer is the runtime rule-management contract.
	Programmer = switchdef.Programmer
	// Rule is one typed match/action rule.
	Rule = switchdef.Rule
	// RuleMatch is a rule's typed match (a 12-tuple subset).
	RuleMatch = switchdef.Match
	// RuleAction is one action of a rule's action list.
	RuleAction = switchdef.RuleAction
	// RuleFieldSet is the bitmask naming a match's constrained fields.
	RuleFieldSet = switchdef.FieldSet
	// NoRuntimeRules is the embeddable Programmer stub for fixed-function
	// data planes.
	NoRuntimeRules = switchdef.NoRuntimeRules
)

// ErrNoRuntimeRules reports a switch whose data plane cannot be
// reprogrammed while running.
var ErrNoRuntimeRules = switchdef.ErrNoRuntimeRules

// Match field selectors for RuleMatch.Fields.
const (
	FInPort  = switchdef.FInPort
	FEthDst  = switchdef.FEthDst
	FEthSrc  = switchdef.FEthSrc
	FEthType = switchdef.FEthType
	FVLAN    = switchdef.FVLAN
	FIPSrc   = switchdef.FIPSrc
	FIPDst   = switchdef.FIPDst
	FIPProto = switchdef.FIPProto
	FL4Src   = switchdef.FL4Src
	FL4Dst   = switchdef.FL4Dst
)

// Rule action kinds.
const (
	RuleOutput    = switchdef.RuleOutput
	RuleDrop      = switchdef.RuleDrop
	RuleSetEthDst = switchdef.RuleSetEthDst
	RuleSetEthSrc = switchdef.RuleSetEthSrc
)

// DefaultRulePriority is the priority Install assumes for Rule.Priority 0.
const DefaultRulePriority = switchdef.DefaultRulePriority

// CrossConnectRules returns the canned two-rule program equivalent to
// CrossConnect(a, b): in_port=a → output:b and the reverse.
func CrossConnectRules(a, b int) []Rule { return switchdef.CrossConnectRules(a, b) }

// I/O modes for SwitchInfo.
const (
	PollMode      = switchdef.PollMode
	InterruptMode = switchdef.InterruptMode
)

// Register adds a switch implementation to the registry under
// info.Name; it then works with Run and the experiment suites.
func Register(info SwitchInfo, factory func(Env) Switch) {
	switchdef.Register(info, factory)
}

// RateForPPS converts a packet rate into the wire bit rate Config.Rate
// expects.
func RateForPPS(pps float64, frameLen int) BitRate {
	return units.RateForPPS(pps, frameLen)
}
