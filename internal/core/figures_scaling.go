package core

import "fmt"

// The scaling experiment follows the journal extension of the paper: the
// multi-core future work of §6, measured as throughput-vs-cores curves.
// Every cell is bidirectional p2p over 64 flows — flow-hashed RSS needs
// flow diversity to spread a port across cores, and the RTC pipeline is
// measured on the identical workload so the two dispatch modes compare
// like for like. The 1-core point of every curve is the paper's original
// single-core methodology (no dispatch dimension at all), shared between
// the rss and rtc curves of a switch.

// ScalingCores is the core-count sweep of the scaling figure.
var ScalingCores = []int{1, 2, 4, 8, 16}

// ScalingSizes are the frame sizes of the scaling figure: the hardest
// (64B, CPU-bound) and the easiest (1500B, line-rate-bound) workloads.
var ScalingSizes = []int{64, 1500}

// ScalingDispatches are the two multi-core dispatch modes, in plotting
// order.
var ScalingDispatches = []string{DispatchRSS, DispatchRTC}

// ScalingFlows is the flow count of every scaling cell.
const ScalingFlows = 64

// scalingConfig builds the cell config for one point. A single-core
// point carries no dispatch dimension: it is the paper's methodology,
// byte-identical to the calibrated baseline (and shared by both curves).
func scalingConfig(name string, dispatch string, size, cores int, o RunOpts) Config {
	cfg := Config{
		Switch: name, Scenario: P2P, FrameLen: size,
		Bidir: true, Flows: ScalingFlows, SUTCores: cores,
	}
	if cores > 1 {
		cfg.Dispatch = dispatch
		if dispatch == DispatchRSS {
			// roundrobin cannot feed more than 2 cores from 2 ports;
			// the scaling curves model hardware RSS.
			cfg.RSSPolicy = RSSFlowHash
		}
	}
	return o.apply(cfg)
}

// scalingFamily is the scaling-curve family: throughput vs. SUT cores,
// every switch, RSS and RTC dispatch, 64B and 1500B frames. Shared 1-core
// cells repeat across dispatch modes; content-addressed caches collapse
// them. Interrupt-mode VALE has no multi-core points (ErrNoMultiCore).
var scalingFamily = &gridFamily{
	id: "scaling", title: "bidirectional p2p throughput vs. SUT cores",
	header:   "Scaling: bidirectional p2p throughput vs. SUT cores (Gbps)",
	scenario: P2P, extension: true,
	points: func(o RunOpts) []ThroughputPoint {
		pts := make([]ThroughputPoint, 0, len(ScalingDispatches)*len(ScalingSizes)*len(Switches)*len(ScalingCores))
		for _, d := range ScalingDispatches {
			for _, size := range ScalingSizes {
				for _, name := range Switches {
					for _, n := range ScalingCores {
						pts = append(pts, ThroughputPoint{Dispatch: d, Config: scalingConfig(name, d, size, n, o)})
					}
				}
			}
		}
		return pts
	},
	caption: func(pt *ThroughputPoint) string {
		return fmt.Sprintf("%s dispatch, %dB frames", pt.Dispatch, pt.FrameLen)
	},
	column: func(pt *ThroughputPoint) string { return fmt.Sprintf("%d-c", pt.Config.SUTCores) },
	cell:   gbpsCell, width: 8,
	csv: []csvColumn{
		colSwitch,
		{"dispatch", func(pt *ThroughputPoint) string { return pt.Dispatch }},
		colFrameBytes,
		{"cores", func(pt *ThroughputPoint) string { return fmt.Sprint(pt.Config.SUTCores) }},
		{"effective_cores", func(pt *ThroughputPoint) string {
			// How many cores carried the data plane: fewer than asked
			// for when queues ran short. A single-core Result reports 0.
			n := pt.Result.EffectiveCores
			if n == 0 && !pt.Unsupported {
				n = pt.Config.SUTCores
			}
			return fmt.Sprint(n)
		}},
		colGbps, colMpps, colUnsupported,
	},
}
