// Package core implements the paper's benchmarking methodology: the four
// test scenarios (p2p, p2v, v2v, loopback), testbed assembly mirroring the
// paper's two-NUMA-node server (Fig. 3), saturated-throughput and
// rate-controlled latency measurement, R⁺ estimation, and the experiment
// definitions that regenerate every figure and table.
package core

import (
	"errors"
	"fmt"

	"repro/internal/multicore"
	"repro/internal/stats"
	"repro/internal/switches/switchdef"
	"repro/internal/topo"
	"repro/internal/units"
)

// ScenarioKind selects one of the paper's four test scenarios (Fig. 2),
// or Custom for a user-supplied topology graph.
type ScenarioKind int

// The four paper scenarios, plus the declarative fifth.
const (
	P2P      ScenarioKind = iota // physical → physical
	P2V                          // physical → virtual
	V2V                          // virtual → virtual
	Loopback                     // NIC → VNF chain → NIC
	Custom                       // user-supplied topology graph (Config.Topology)
)

// String implements fmt.Stringer.
func (k ScenarioKind) String() string {
	switch k {
	case P2P:
		return "p2p"
	case P2V:
		return "p2v"
	case V2V:
		return "v2v"
	case Loopback:
		return "loopback"
	case Custom:
		return "custom"
	default:
		return fmt.Sprintf("ScenarioKind(%d)", int(k))
	}
}

// Config describes one measurement run.
type Config struct {
	// Switch is the registry name of the SUT ("bess", "fastclick",
	// "ovs", "snabb", "t4p4s", "vale", "vpp").
	Switch string
	// Scenario picks the topology.
	Scenario ScenarioKind
	// Chain is the loopback VNF count (default 1; loopback only).
	Chain int
	// FrameLen is the synthetic frame size in bytes (default 64).
	FrameLen int
	// IMIX replaces the fixed frame size with the classic Internet mix
	// (7×64B : 4×570B : 1×1518B, ≈340B average — cf. the paper's remark
	// that realistic traffic averages ~850B and is easy for every
	// switch). FrameLen is ignored for generation but still bounds
	// probe frames.
	IMIX bool
	// Bidir drives traffic in both directions simultaneously.
	Bidir bool
	// Reversed measures the p2v VM→NIC direction instead (the paper's
	// "reversed unidirectional" probe of VPP's vhost RX penalty).
	Reversed bool
	// Rate is the offered load per direction; 0 saturates.
	Rate units.BitRate
	// Flows spreads the synthetic traffic over this many flows (distinct
	// source MAC and UDP source port). The paper uses a single flow
	// ("identical packets, corresponding to a single flow"); higher
	// values stress flow caches and learning tables (ablations).
	Flows int
	// ZipfSkew, when > 0, draws each frame's flow from a Zipf
	// distribution with this exponent over [0, Flows) instead of cycling
	// round-robin — the heavy-tailed flow mix real traces show, which
	// keeps hot flows cached while the tail churns the EMC. 0 keeps the
	// paper's round-robin cycle byte-identical.
	ZipfSkew float64 `json:",omitempty"`
	// RuleUpdateRate, when > 0, runs a control-plane actor that installs
	// and revokes rules against the SUT at this many operations per
	// second of simulated time (mid-run rule churn: megaflow
	// revalidation, EMC invalidation, per-shard re-misses). It requires
	// a switch whose registered Info has RuntimeRules set.
	RuleUpdateRate float64 `json:",omitempty"`
	// ProbeEvery injects latency probes at this interval (0 = none).
	ProbeEvery units.Time
	// LatencyTopology selects the v2v latency wiring (two interfaces per
	// VM with an l2fwd reflector, §5.3) instead of the v2v throughput
	// wiring.
	LatencyTopology bool

	// Topology is the declarative graph run by the Custom scenario —
	// arbitrary chains, fan-out, and asymmetric paths beyond the
	// paper's four wirings (see internal/topo and `swbench topo`). It
	// must be nil for the named scenarios, whose graphs derive from the
	// fields above (Config.Graph).
	Topology *topo.Graph `json:",omitempty"`

	// Containers hosts the VNFs in containers instead of QEMU VMs (the
	// paper's second future-work item): cheaper virtio crossings and
	// notifications, and no QEMU-specific constraints (BESS's chain cap
	// is a QEMU incompatibility and does not apply).
	Containers bool

	// SUTCores runs the switch data plane on several cores (default 1 —
	// the paper's methodology; >1 implements the paper's "multi-core
	// solutions" future work for poll-mode switches, each core running
	// its own switch instance with private caches and tables).
	SUTCores int
	// Dispatch selects how a multi-core run distributes work:
	// DispatchRSS (receive-side scaling: each core owns receive queues
	// and runs the full data plane over them) or DispatchRTC (the path
	// is split into steer/process/transmit pipeline stages chained
	// across cores with handoff rings). Empty means DispatchRSS when
	// SUTCores > 1; it must stay empty for single-core runs, keeping
	// the paper-methodology configs byte-identical.
	Dispatch string `json:",omitempty"`
	// RSSPolicy picks how DispatchRSS assigns receive queues to cores:
	// RSSRoundRobin (static queue → core map in declaration order, the
	// default) or RSSFlowHash (hardware RSS: every physical port is
	// spread over one queue per core by flow hash — the only way a
	// single port scales past one core).
	RSSPolicy string `json:",omitempty"`

	// Duration is the measurement window (default 20 ms simulated).
	Duration units.Time
	// Warmup precedes the window (default 4 ms; too short for Snabb's JIT
	// warmup, whose cost multiplier is still ~1.3 after 4 ms at 14 Mpps).
	Warmup units.Time
	// Seed drives all randomness (default 1).
	Seed uint64
	// CapturePath, when set, dumps every frame delivered to the first
	// measurement endpoint into a pcap file (tcpdump/Wireshark-readable).
	CapturePath string
}

// Dispatch modes and RSS policies (see internal/multicore).
const (
	DispatchRSS = multicore.ModeRSS
	DispatchRTC = multicore.ModeRTC

	RSSRoundRobin = multicore.PolicyRoundRobin
	RSSFlowHash   = multicore.PolicyFlowHash
)

// withDefaults returns cfg with defaults applied.
func (cfg Config) withDefaults() Config {
	if cfg.Topology != nil {
		// A topology graph may carry the multi-core dimension; explicit
		// Config fields win.
		if cfg.SUTCores == 0 && cfg.Topology.SUTCores > 0 {
			cfg.SUTCores = cfg.Topology.SUTCores
		}
		if cfg.Dispatch == "" {
			cfg.Dispatch = cfg.Topology.Dispatch
		}
		if cfg.RSSPolicy == "" {
			cfg.RSSPolicy = cfg.Topology.RSSPolicy
		}
	}
	if cfg.FrameLen == 0 {
		cfg.FrameLen = 64
	}
	if cfg.Chain == 0 {
		cfg.Chain = 1
	}
	if cfg.Duration == 0 {
		cfg.Duration = 20 * units.Millisecond
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 4 * units.Millisecond
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.SUTCores == 0 {
		cfg.SUTCores = 1
	}
	if cfg.SUTCores > 1 {
		if cfg.Dispatch == "" {
			cfg.Dispatch = DispatchRSS
		}
		if cfg.Dispatch == DispatchRSS && cfg.RSSPolicy == "" {
			cfg.RSSPolicy = RSSRoundRobin
		}
	}
	return cfg
}

// Validate reports configuration errors without running anything. Every
// violation found is reported, joined into one error, not just the
// first — a config fixed iteratively surfaces all its problems at once.
func (cfg Config) Validate() error {
	c := cfg.withDefaults()
	var errs []error
	if c.FrameLen < 64 || c.FrameLen > units.MaxFrameBytes {
		errs = append(errs, fmt.Errorf("core: frame length %d outside [64, %d]", c.FrameLen, units.MaxFrameBytes))
	}
	if c.Scenario == Loopback && c.Chain < 1 {
		errs = append(errs, errors.New("core: loopback needs a chain of at least 1 VNF"))
	}
	if c.Reversed && c.Scenario != P2V {
		errs = append(errs, errors.New("core: Reversed applies to p2v only"))
	}
	if c.LatencyTopology && c.Scenario != V2V {
		errs = append(errs, errors.New("core: LatencyTopology applies to v2v only"))
	}
	if c.SUTCores < 1 {
		errs = append(errs, errors.New("core: SUTCores must be at least 1"))
	}
	if c.Flows < 0 {
		errs = append(errs, fmt.Errorf("core: Flows must be non-negative (got %d)", c.Flows))
	}
	if c.ZipfSkew < 0 {
		errs = append(errs, fmt.Errorf("core: ZipfSkew must be positive when set (got %g)", c.ZipfSkew))
	}
	if c.ZipfSkew > 0 && c.Flows < 2 {
		errs = append(errs, fmt.Errorf("core: ZipfSkew needs Flows > 1 to have a distribution to skew (got Flows=%d)", c.Flows))
	}
	if c.RuleUpdateRate < 0 {
		errs = append(errs, fmt.Errorf("core: RuleUpdateRate must be non-negative (got %g)", c.RuleUpdateRate))
	}
	if c.RuleUpdateRate > 0 {
		if info, err := switchdef.Lookup(c.Switch); err == nil && !info.RuntimeRules {
			errs = append(errs, fmt.Errorf("core: %s cannot take rule updates at runtime: %w", c.Switch, ErrNoRuntimeRules))
		}
		if c.Scenario == Custom && c.Topology != nil && !c.Topology.HasController() {
			errs = append(errs, errors.New("core: RuleUpdateRate needs a controller node in the custom topology"))
		}
	}
	switch c.Dispatch {
	case "":
		// Single-core: the multi-core dimension must stay unset.
		if c.RSSPolicy != "" {
			errs = append(errs, fmt.Errorf("core: RSSPolicy %q needs SUTCores > 1", c.RSSPolicy))
		}
	case DispatchRSS:
		if c.SUTCores == 1 {
			errs = append(errs, errors.New("core: rss dispatch needs SUTCores > 1"))
		}
		switch c.RSSPolicy {
		case RSSRoundRobin, RSSFlowHash:
		default:
			errs = append(errs, fmt.Errorf("core: unknown rss policy %q (want %q or %q)", c.RSSPolicy, RSSRoundRobin, RSSFlowHash))
		}
		if c.SUTCores > 1 {
			if err := c.validateRSSQueues(); err != nil {
				errs = append(errs, err)
			}
		}
	case DispatchRTC:
		if c.SUTCores < 2 {
			errs = append(errs, errors.New("core: rtc dispatch chains its pipeline stages (steer, process, transmit) across at least 2 cores"))
		}
		if c.RSSPolicy != "" {
			errs = append(errs, fmt.Errorf("core: RSSPolicy %q applies to rss dispatch only", c.RSSPolicy))
		}
	default:
		errs = append(errs, fmt.Errorf("core: unknown dispatch mode %q (want %q or %q)", c.Dispatch, DispatchRSS, DispatchRTC))
	}
	switch {
	case c.Scenario == Custom && c.Topology == nil:
		errs = append(errs, errors.New("core: the custom scenario needs a Topology graph"))
	case c.Scenario != Custom && c.Topology != nil:
		errs = append(errs, fmt.Errorf("core: Topology applies to the custom scenario only (got %v)", c.Scenario))
	case c.Topology != nil:
		// The graph validator reports its own joined list: dangling
		// edges, duplicate node names, missing endpoints, ...
		if err := c.Topology.Validate(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// validateRSSQueues rejects an RSS core count the topology cannot feed:
// under the round-robin policy each core needs a receive queue of its
// own, and a flow-hashed run with no physical port is still bounded by
// its guest interface count. Cores beyond the queue count would only
// burn cycles idling.
func (c Config) validateRSSQueues() error {
	g, err := c.Graph()
	if err != nil {
		return nil // the scenario/topology checks already reported this
	}
	phys, physQueues, guests := 0, 0, 0
	for _, n := range g.Nodes {
		switch n.Kind {
		case topo.KindPhysPair:
			phys++
			q := n.Queues
			if q < 1 {
				q = 1
			}
			physQueues += q
		case topo.KindGuestIf:
			guests++
		}
	}
	switch {
	case c.RSSPolicy == RSSRoundRobin && c.SUTCores > physQueues+guests:
		return fmt.Errorf("core: rss/roundrobin cannot feed %d cores from %d receive queues (%d physical, %d guest) — declare more NIC queues, use the flowhash policy, or drop cores",
			c.SUTCores, physQueues+guests, physQueues, guests)
	case c.RSSPolicy == RSSFlowHash && phys == 0 && c.SUTCores > guests:
		return fmt.Errorf("core: rss/flowhash has no physical port to spread; %d cores exceed the %d guest interfaces", c.SUTCores, guests)
	}
	return nil
}

// ErrChainTooLong reports a switch-specific VM-count limit (BESS's QEMU
// incompatibility, paper footnote 5). Experiments render it as "-".
var ErrChainTooLong = errors.New("core: switch cannot host this many VMs (QEMU incompatibility)")

// ErrNoMultiCore reports a switch that cannot run its data plane on
// several cores (VALE's interrupt-driven kernel path). Scaling figures
// render it as unsupported.
var ErrNoMultiCore = errors.New("core: switch does not support multi-core operation")

// ErrNoRuntimeRules reports a switch whose data plane cannot be
// reprogrammed while running (Snabb/BESS rebuild their graphs, VALE
// learns). Churn figures render it as unsupported.
var ErrNoRuntimeRules = switchdef.ErrNoRuntimeRules

// DirResult is per-direction throughput.
type DirResult struct {
	// RxPackets/RxBytes were delivered to the direction's measurement
	// endpoint during the window.
	RxPackets int64
	RxBytes   int64
	// Gbps is wire throughput (frame + preamble/IFG bits, the paper's
	// convention); Mpps is the packet rate.
	Gbps float64
	Mpps float64
}

// Result is one run's measurements.
type Result struct {
	Config  Config
	Display string // switch display name

	// Dirs holds one entry per traffic direction (1 or 2).
	Dirs []DirResult
	// Gbps and Mpps aggregate all directions (the paper's bidirectional
	// plots report aggregated throughput).
	Gbps float64
	Mpps float64
	// OfferedGbps is the total offered load.
	OfferedGbps float64

	// Latency summarizes probe RTTs (zero-valued when no probes ran).
	Latency stats.Summary

	// SUTBusyFrac is the fraction of SUT core cycles doing useful work
	// (averaged over cores in multi-core runs).
	SUTBusyFrac float64
	// EffectiveCores is how many SUT cores actually carried the data
	// plane — min(SUTCores, receive queues) under RSS dispatch, all of
	// them under RTC. Zero for single-core runs.
	EffectiveCores int `json:",omitempty"`
	// Cores breaks utilization down per SUT core in multi-core runs.
	Cores []CoreUtil `json:",omitempty"`
	// Drops counts frames lost anywhere in the data path.
	Drops int64
	// HostCopies counts the vhost guest-memory copies the SUT core paid
	// for during the window — the per-crossing "vhost tax" that separates
	// p2v/v2v/loopback from p2p.
	HostCopies int64
	// RuleUpdates counts the control-plane rule operations (installs +
	// revokes) completed during the window (0 without churn).
	RuleUpdates int64 `json:",omitempty"`
	// EMCEvictions counts exact-match-cache entries replaced while live
	// during the window — OvS's first cache tier overflowing under flow
	// diversity. Zero for switches without an EMC.
	EMCEvictions int64 `json:",omitempty"`
	// Steps is the scheduler's logical step count (determinism
	// fingerprint): steps dispatched plus the empty polls sleeping poll
	// cores booked without being dispatched, so it does not depend on
	// idle-poll elision (sim.Scheduler.Elided tells the two apart).
	Steps uint64
	// SimPartitions is never set and always 0: the partitioned engine that
	// filled it is gone. The field stays only because benchmark/pass_test.go
	// names it; it goes with that line.
	SimPartitions int `json:"-"`
}

// CoreUtil is one SUT core's utilization over the measurement window.
type CoreUtil struct {
	// Name is the core's role label (sut-core0, sut-rx, sut-proc0, ...).
	Name string
	// BusyFrac is the fraction of its cycles doing useful work.
	BusyFrac float64
}
