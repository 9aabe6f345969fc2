package core

import (
	"fmt"

	"repro/internal/units"
)

// The churn experiment family probes the control-plane dimension the
// paper's single-flow methodology deliberately holds still: what happens
// to a software switch when its rule tables are edited while traffic
// flows, and when that traffic spreads over more flows than the fast-path
// caches hold. OvS's three-tier cache hierarchy (EMC → megaflow → slow
// path) is the motivating case — the EMC holds 8192 entries, so the flow
// sweep crosses its capacity — but every switch runs the same grid:
// t4p4s pays table-version invalidations, FastClick its drop-set filter,
// VPP its ACL arc, and the fixed-function switches (Snabb, BESS,
// VALE) appear as unsupported cells whenever rule updates are requested,
// exactly as their reprogrammability column in Table 1 predicts.

// ChurnFlowCounts is the active-flow sweep (the x-axis). It crosses the
// OvS EMC capacity (8192) so the cache-overflow knee is visible.
var ChurnFlowCounts = []int{512, 2048, 8192, 32768}

// ChurnUpdateRates is the rule-update sweep (one curve per rate), in
// control-plane operations per second of simulated time. Rate 0 is the
// churn-free baseline — byte-identical to the paper's methodology.
var ChurnUpdateRates = []float64{0, 10000, 100000}

// ChurnSkews is the flow-mix sweep: 0 cycles flows round-robin (every
// flow equally active — worst case for caches), 1.1 draws them from a
// heavy-tailed Zipf (hot flows stay cached while the tail churns).
var ChurnSkews = []float64{0, 1.1}

// churnProbeEvery is the latency-probe interval of every churn cell: the
// figure reports latency under load next to throughput, so rule-update
// stalls show up as RTT inflation too.
const churnProbeEvery = 100 * units.Microsecond

// churnFamily is the cache-churn family: throughput and mean probe RTT
// vs. active-flow count, one table per flow mix and rule-update rate. A
// rate-0 skew-0 cell carries no churn dimension at all: it differs from
// the paper's p2p methodology only by its flow count and probes.
var churnFamily = &gridFamily{
	id: "churn", title: "p2p 64B throughput and RTT vs. active flows and rule-update rate",
	header:   "Churn: p2p 64B throughput (Gbps) / mean RTT (us) vs. active flows and rule-update rate",
	scenario: P2P, extension: true,
	points: func(o RunOpts) []ThroughputPoint {
		pts := make([]ThroughputPoint, 0, len(ChurnSkews)*len(ChurnUpdateRates)*len(Switches)*len(ChurnFlowCounts))
		for _, skew := range ChurnSkews {
			for _, rate := range ChurnUpdateRates {
				for _, name := range Switches {
					for _, flows := range ChurnFlowCounts {
						pts = append(pts, ThroughputPoint{Config: o.apply(Config{
							Switch: name, Scenario: P2P, FrameLen: 64,
							Flows: flows, ZipfSkew: skew, RuleUpdateRate: rate,
							ProbeEvery: churnProbeEvery,
						})})
					}
				}
			}
		}
		return pts
	},
	caption: func(pt *ThroughputPoint) string {
		mix := "round-robin flows"
		if pt.Config.ZipfSkew > 0 {
			mix = fmt.Sprintf("zipf(%.1f) flows", pt.Config.ZipfSkew)
		}
		return fmt.Sprintf("%s, %.0f rule updates/s", mix, pt.Config.RuleUpdateRate)
	},
	column: func(pt *ThroughputPoint) string { return fmt.Sprintf("%df", pt.Config.Flows) },
	cell: func(pt *ThroughputPoint) string {
		return fmt.Sprintf("%7.2f/%6.1fu", pt.Gbps, pt.Result.Latency.MeanUs)
	},
	width: 15,
	csv: []csvColumn{
		colSwitch,
		{"zipf_skew", func(pt *ThroughputPoint) string { return fmt.Sprintf("%g", pt.Config.ZipfSkew) }},
		{"update_rate", func(pt *ThroughputPoint) string { return fmt.Sprintf("%g", pt.Config.RuleUpdateRate) }},
		{"flows", func(pt *ThroughputPoint) string { return fmt.Sprint(pt.Config.Flows) }},
		colGbps, colMpps,
		{"mean_rtt_us", func(pt *ThroughputPoint) string { return fmt.Sprintf("%.2f", pt.Result.Latency.MeanUs) }},
		{"rule_updates", func(pt *ThroughputPoint) string { return fmt.Sprint(pt.Result.RuleUpdates) }},
		{"emc_evictions", func(pt *ThroughputPoint) string { return fmt.Sprint(pt.Result.EMCEvictions) }},
		colUnsupported,
	},
}
