package core

import (
	"fmt"
	"math"
	"os"
	"regexp"
	"testing"

	"repro/internal/units"
)

// claim is one qualitative finding — of the paper, or of an extension
// measured beyond it — as a check over simulated cells. EXPERIMENTS.md
// tags the sentence each claim tests with [claim: id].
type claim struct {
	id, locus, text string // text is the sentence the check tests
	// want is the expected verdict. A claim the model is known to miss
	// expects notReproduced, so a fix shows up as a verdict change.
	want  bool
	check func(p *probe)
}

const (
	reproduced    = true
	notReproduced = false
)

// paperClaims is every claim TestPaperClaims checks at seed 1. A cell
// without its own windows runs at Quick's.
var paperClaims = []claim{
	{"fig1-throughput-latency-inverse", "§1, Fig. 1",
		"Ranking the switches by bidirectional 64 B p2p throughput inverts their ranking by RTT at 0.95·R⁺: Spearman's ρ ≤ −0.4.", reproduced, func(p *probe) {
			pts, err := Figure1On(p.cells, Quick)
			p.must(err)
			var thr, lat []float64
			for _, pt := range pts {
				thr, lat = append(thr, pt.Gbps), append(lat, pt.MeanUs)
			}
			rho := spearman(thr, lat)
			p.expect(rho <= -0.4, "Spearman ρ = %.2f", rho)
		}},
	{"fig1-bidir-rtt-both-directions", "§1, Fig. 1",
		"A bidirectional run's RTT merges both directions' probes: at least 1.5× the samples of the unidirectional run, with a positive mean (VPP, 2 Gbps).", reproduced, func(p *probe) {
			cfg := Config{Switch: "vpp", Scenario: P2P, Rate: 2 * units.Gbps, ProbeEvery: DefaultProbeEvery,
				Duration: 4 * units.Millisecond, Warmup: units.Millisecond}
			uni := p.run(cfg).Latency
			cfg.Bidir = true
			both := p.run(cfg).Latency
			p.expect(uni.N > 0 && both.N >= uni.N*3/2 && both.MeanUs > 0, "%d samples bidirectional, %d unidirectional, mean %.1f µs", both.N, uni.N, both.MeanUs)
		}},
	{"fig4a-p2p-all-forward", "§5.2, Fig. 4a",
		"At 64 B p2p every switch forwards traffic (more than 0.1 Gbps).", reproduced, func(p *probe) {
			for _, name := range Switches {
				got := p.gbps(Config{Switch: name, Scenario: P2P})
				p.expect(got > 0.1, "%s forwards nothing (%.3f Gbps)", name, got)
			}
		}},
	{"fig4a-p2p-ordering", "§5.2, Fig. 4a",
		"At 64 B p2p BESS, FastClick and VPP reach line rate, then Snabb > OvS > VALE, with VALE and t4p4s at most 6.5 Gbps.", reproduced, func(p *probe) {
			g := map[string]float64{}
			for _, name := range Switches {
				g[name] = p.gbps(Config{Switch: name, Scenario: P2P})
			}
			for _, fast := range []string{"bess", "fastclick", "vpp"} {
				p.expect(g[fast] >= 9.9, "%s = %.2f, want line rate", fast, g[fast])
			}
			p.expect(g["snabb"] > g["ovs"] && g["ovs"] > g["vale"], "snabb=%.2f ovs=%.2f vale=%.2f", g["snabb"], g["ovs"], g["vale"])
			p.expect(g["vale"] <= 6.5 && g["t4p4s"] <= 6.5, "vale/t4p4s = %.2f / %.2f", g["vale"], g["t4p4s"])
		}},
	{"fig4a-bess-bidir-lead", "§5.2, Fig. 4a",
		"Bidirectional 64 B p2p: BESS reaches ~16 Gbps (14–18); FastClick and VPP exceed 10 Gbps but stay below BESS.", reproduced, func(p *probe) {
			best := p.gbps(Config{Switch: "bess", Scenario: P2P, Bidir: true})
			p.expect(best >= 14 && best <= 18, "bess = %.2f", best)
			for _, other := range []string{"fastclick", "vpp"} {
				got := p.gbps(Config{Switch: other, Scenario: P2P, Bidir: true})
				p.expect(got < best && got >= 10, "%s = %.2f (bess %.2f)", other, got, best)
			}
		}},
	{"fig4a-1024-uni-line-rate", "§5.2, Fig. 4a",
		"At 1024 B every switch saturates unidirectional p2p.", reproduced, func(p *probe) {
			for _, name := range Switches {
				uni := p.gbps(Config{Switch: name, Scenario: P2P, FrameLen: 1024})
				p.expect(uni >= 9.9, "%s = %.2f, want line rate", name, uni)
			}
		}},
	{"fig4a-1024-bidir-20g", "§5.2, Fig. 4a",
		"At 1024 B every switch but VALE and t4p4s reaches 20 Gbps bidirectionally in p2p.", reproduced, func(p *probe) {
			for _, name := range Switches {
				bidir := p.gbps(Config{Switch: name, Scenario: P2P, FrameLen: 1024, Bidir: true})
				limited := name == "vale" || name == "t4p4s"
				p.expect(limited == (bidir < 19.9), "%s = %.2f bidir", name, bidir)
			}
		}},
	{"fig4b-vhost-tax", "§5.2, Fig. 4b",
		"The vhost-user copy tax puts 64 B p2v below p2p for FastClick, VPP, OvS, Snabb and t4p4s; VALE's zero-copy ptnet lifts its p2v above its p2p, and BESS still saturates.", reproduced, func(p *probe) {
			for _, name := range []string{"fastclick", "vpp", "ovs", "snabb", "t4p4s", "vale"} {
				p2p := p.gbps(Config{Switch: name, Scenario: P2P})
				p2v := p.gbps(Config{Switch: name, Scenario: P2V})
				ok := p2v < p2p
				if name == "vale" {
					ok = p2v > p2p
				}
				p.expect(ok, "%s: p2v %.2f, p2p %.2f", name, p2v, p2p)
			}
			bess := p.gbps(Config{Switch: "bess", Scenario: P2V})
			p.expect(bess >= 9.9, "bess p2v = %.2f", bess)
		}},
	{"fig4b-vpp-reversed-penalty", "§5.2, Fig. 4b",
		"VPP's reversed p2v (VM→NIC) is slower than its forward p2v.", reproduced, func(p *probe) {
			fwd := p.gbps(Config{Switch: "vpp", Scenario: P2V})
			rev := p.gbps(Config{Switch: "vpp", Scenario: P2V, Reversed: true})
			p.expect(rev < fwd, "reversed %.2f, forward %.2f", rev, fwd)
		}},
	{"fig4c-vale-v2v-lead", "§5.2, Fig. 4c",
		"VALE leads 64 B v2v at ~10.5 Gbps (at least 9.5); every other switch stays at most 7.6 Gbps.", reproduced, func(p *probe) {
			vale := p.gbps(Config{Switch: "vale", Scenario: V2V})
			p.expect(vale >= 9.5, "vale = %.2f", vale)
			for _, other := range []string{"bess", "vpp", "snabb", "ovs", "t4p4s", "fastclick"} {
				got := p.gbps(Config{Switch: other, Scenario: V2V})
				p.expect(got < vale && got <= 7.6, "%s = %.2f (vale %.2f)", other, got, vale)
			}
		}},
	{"fig4c-snabb-v2v-over-p2v", "§5.2, Fig. 4c",
		"Snabb's v2v throughput beats its own p2v.", reproduced, func(p *probe) {
			p2v := p.gbps(Config{Switch: "snabb", Scenario: P2V})
			v2v := p.gbps(Config{Switch: "snabb", Scenario: V2V})
			p.expect(v2v > p2v, "v2v %.2f, p2v %.2f", v2v, p2v)
		}},
	{"fig5-chain-decay", "§5.2, Fig. 5",
		"Loopback throughput of VPP, VALE and OvS does not grow with the chain from 1 to 4 VNFs (2 % slack).", reproduced, func(p *probe) {
			for _, name := range []string{"vpp", "vale", "ovs"} {
				prev := math.Inf(1)
				for chain := 1; chain <= 4; chain++ {
					got := p.gbps(Config{Switch: name, Scenario: Loopback, Chain: chain})
					p.expect(got <= prev*1.02, "%s: %d VNFs %.2f, one fewer %.2f", name, chain, got, prev)
					prev = got
				}
			}
		}},
	{"fig5-vale-long-chain-lead", "§5.2, Fig. 5",
		"At 4 VNFs VALE leads VPP, FastClick, Snabb, OvS and t4p4s.", reproduced, func(p *probe) {
			vale := p.gbps(Config{Switch: "vale", Scenario: Loopback, Chain: 4})
			for _, other := range []string{"vpp", "fastclick", "snabb", "ovs", "t4p4s"} {
				got := p.gbps(Config{Switch: other, Scenario: Loopback, Chain: 4})
				p.expect(got < vale, "%s = %.2f (vale %.2f)", other, got, vale)
			}
		}},
	{"fig5-snabb-collapse", "§5.2, Fig. 5",
		"Snabb's loopback throughput collapses from 3 to 4 VNFs (to at most 60 %).", reproduced, func(p *probe) {
			three := p.gbps(Config{Switch: "snabb", Scenario: Loopback, Chain: 3})
			four := p.gbps(Config{Switch: "snabb", Scenario: Loopback, Chain: 4})
			p.expect(four <= three*0.6, "3 VNFs %.2f, 4 VNFs %.2f", three, four)
		}},
	{"rplus-no-loss-at-half-load", "§5.3, R⁺",
		"At 0.5·R⁺ BESS, VPP, VALE and t4p4s deliver at least 98 % of the offered load in p2p, p2v and 1-VNF loopback.", reproduced, func(p *probe) {
			for _, name := range []string{"bess", "vpp", "vale", "t4p4s"} {
				for _, scn := range []ScenarioKind{P2P, P2V, Loopback} {
					base := Config{Switch: name, Scenario: scn}
					rp := p.rPlus(base)
					base.Rate = units.RateForPPS(rp*0.5, 64)
					res := p.run(base)
					offered := rp * 0.5 * res.Config.Duration.Seconds()
					p.expect(res.Dirs[0].RxPackets >= int64(offered*0.98), "%s/%v: delivered %d of ~%.0f (drops=%d)",
						name, scn, res.Dirs[0].RxPackets, offered, res.Drops)
				}
			}
		}},
	{"rplus-cpu-bound-busy", "§5.3, R⁺",
		"A CPU-bound switch at saturation keeps its core busy (OvS ≥ 85 %); a lightly loaded one mostly idle-polls (BESS at 1 Gbps ≤ 70 %).", reproduced, func(p *probe) {
			ovs := p.run(Config{Switch: "ovs", Scenario: P2P}).SUTBusyFrac
			bess := p.run(Config{Switch: "bess", Scenario: P2P, Rate: units.Gbps}).SUTBusyFrac
			p.expect(ovs >= 0.85 && bess <= 0.7, "ovs busy %.2f, bess busy %.2f", ovs, bess)
		}},
	{"rplus-overload-drops-counted", "§5.3, R⁺",
		"Saturated t4p4s loses at least 30 % of the offered 64 B p2p load, and its drop counters account for at least 90 % of the loss.", reproduced, func(p *probe) {
			res := p.run(Config{Switch: "t4p4s", Scenario: P2P})
			offered := units.TenGigE.MaxPPS(64) * res.Config.Duration.Seconds()
			lost := offered - float64(res.Dirs[0].RxPackets)
			p.expect(lost >= offered*0.3 && float64(res.Drops) >= lost*0.9, "lost %.0f of %.0f, drops=%d", lost, offered, res.Drops)
		}},
	{"table3-probes-survive-chain", "§5.3, Table 3",
		"Latency probes cross every copy of an OvS 3-VNF loopback chain and come back: at least 60 positive RTT samples at 0.5 Gbps.", reproduced, func(p *probe) {
			lat := p.run(Config{Switch: "ovs", Scenario: Loopback, Chain: 3, Rate: units.Gbps / 2,
				ProbeEvery: 50 * units.Microsecond}).Latency
			p.expect(lat.N >= 60 && lat.MeanUs > 0, "%d probes, mean %.1f µs", lat.N, lat.MeanUs)
		}},
	{"table3-p2p-load-ladder", "§5.3, Table 3",
		"For VPP, OvS and t4p4s, p2p RTT at 0.99·R⁺ is not below RTT at 0.50·R⁺ (5 % slack).", reproduced, func(p *probe) {
			for _, name := range []string{"vpp", "ovs", "t4p4s"} {
				us := p.latency(Config{Switch: name, Scenario: P2P}, 0.50, 0.99)
				p.expect(us[1] >= us[0]*0.95, "%s: %.1f µs at 0.99·R⁺, %.1f at 0.50·R⁺", name, us[1], us[0])
			}
		}},
	{"table3-low-load-batching", "§5.3, Table 3",
		"In 1-VNF loopback, l2fwd's strict batching makes RTT at 0.10·R⁺ exceed RTT at 0.50·R⁺ for VPP, BESS and FastClick, while VALE's adaptive batching keeps it within 2×.", reproduced, func(p *probe) {
			for _, name := range []string{"vpp", "bess", "fastclick", "vale"} {
				us := p.latency(Config{Switch: name, Scenario: Loopback, Chain: 1}, 0.10, 0.50)
				ok := us[0] > us[1]
				if name == "vale" {
					ok = us[0] <= us[1]*2
				}
				p.expect(ok, "%s: %.1f µs at 0.10·R⁺, %.1f at 0.50·R⁺", name, us[0], us[1])
			}
		}},
	{"table3-interrupt-floor", "§5.3, Table 3",
		"VALE's interrupt moderation sets a p2p RTT floor at 0.10·R⁺ at least 5× VPP's.", reproduced, func(p *probe) {
			vale := p.latency(Config{Switch: "vale", Scenario: P2P}, 0.10)[0]
			vpp := p.latency(Config{Switch: "vpp", Scenario: P2P}, 0.10)[0]
			p.expect(vale >= 5*vpp, "vale %.1f µs, vpp %.1f µs", vale, vpp)
		}},
	valeTail("table3-vale-p2p-tail", "p2p", 59, 34, Config{Scenario: P2P}),
	valeTail("table3-vale-lb1-tail", "1-VNF loopback", 65, 35, Config{Scenario: Loopback, Chain: 1}),
	valeTail("table3-vale-lb4-tail", "4-VNF loopback", 166, 100, Config{Scenario: Loopback, Chain: 4}),
	{"table4-vale-v2v-latency", "§5.3, Table 4",
		"VALE has the lowest v2v RTT at 1 Mpps, and t4p4s's is not below VPP's.", reproduced, func(p *probe) {
			rows, err := Table4On(p.cells, Quick)
			p.must(err)
			us := map[string]float64{}
			for _, r := range rows {
				us[r.Switch] = r.MeanUs
			}
			for name, v := range us {
				p.expect(name == "vale" || us["vale"] < v, "vale %.1f µs, %s %.1f", us["vale"], name, v)
			}
			p.expect(us["t4p4s"] >= us["vpp"], "t4p4s %.1f µs, vpp %.1f", us["t4p4s"], us["vpp"])
		}},
	{"fn3-ndr-near-rplus-stable", "§5.3, footnote 3",
		"For stable VPP an RFC 2544 NDR search (2 frames of loss allowed) lands within 0.5–1.05·R⁺ in at least 3 trials.", reproduced, func(p *probe) {
			vpp, rp := p.ndr("vpp", NDROptions{LossTolerance: 2})
			p.expect(vpp.PPS >= 0.5*rp && vpp.PPS <= 1.05*rp && len(vpp.Trials) >= 3,
				"NDR %.2f Mpps, R⁺ %.2f Mpps, %d trials", vpp.PPS/1e6, rp/1e6, len(vpp.Trials))
		}},
	{"fn3-ndr-below-rplus-unstable", "§5.3, footnote 3",
		"For jittery t4p4s the strict zero-loss NDR search converges to at most 0.9·R⁺.", reproduced, func(p *probe) {
			t4, rp := p.ndr("t4p4s", NDROptions{})
			p.expect(t4.PPS <= 0.9*rp, "NDR %.2f Mpps, R⁺ %.2f Mpps", t4.PPS/1e6, rp/1e6)
		}},
	{"ext-multiflow-ovs-emc", "extension: flow count (§5.2 single-flow remark)",
		"20 000 flows thrash OvS's EMC below its single-flow p2p rate, while port-based VPP keeps at least 95 %.", reproduced, func(p *probe) {
			for _, name := range []string{"ovs", "vpp"} {
				one := p.gbps(Config{Switch: name, Scenario: P2P})
				many := p.gbps(Config{Switch: name, Scenario: P2P, Flows: 20000})
				ok := many < one
				if name == "vpp" {
					ok = many >= one*0.95
				}
				p.expect(ok, "%s: 20k flows %.2f, 1 flow %.2f", name, many, one)
			}
		}},
	{"ext-containers-beat-vms", "extension: containers (§6)",
		"Container-hosted 2-VNF chains beat VM chains for VPP and OvS.", reproduced, func(p *probe) {
			for _, name := range []string{"vpp", "ovs"} {
				vm := p.gbps(Config{Switch: name, Scenario: Loopback, Chain: 2})
				ct := p.gbps(Config{Switch: name, Scenario: Loopback, Chain: 2, Containers: true})
				p.expect(ct > vm, "%s: containers %.2f, VMs %.2f", name, ct, vm)
			}
		}},
	{"ext-containers-bess-chain-cap", "extension: containers (§6)",
		"Containers lift BESS's 3-VM QEMU cap: its 5-VNF container chain forwards.", reproduced, func(p *probe) {
			bess := p.gbps(Config{Switch: "bess", Scenario: Loopback, Chain: 5, Containers: true})
			p.expect(bess > 0, "bess 5-VNF chain = %.2f Gbps", bess)
		}},
	{"ext-imix-line-rate", "extension: IMIX (§5.2 realistic-traffic remark)",
		"With the classic IMIX (mean frame 300–380 B) VALE, t4p4s and OvS reach at least 9.5 Gbps in p2p.", reproduced, func(p *probe) {
			for _, name := range []string{"vale", "t4p4s", "ovs"} {
				res := p.run(Config{Switch: name, Scenario: P2P, IMIX: true})
				mean := float64(res.Dirs[0].RxBytes) / float64(res.Dirs[0].RxPackets)
				p.expect(res.Gbps >= 9.5 && mean >= 300 && mean <= 380, "%s: %.2f Gbps, mean frame %.0f B", name, res.Gbps, mean)
			}
		}},
	{"method-gbps-from-bytes", "§5.2, throughput in Gbps",
		"For fixed-size traffic the bytes-based Gbps equals the frame-size formula within 0.001 Gbps (BESS, 256 B p2p).", reproduced, func(p *probe) {
			res := p.run(Config{Switch: "bess", Scenario: P2P, FrameLen: 256})
			want := units.WireGbps(res.Dirs[0].RxPackets, 256, res.Config.Duration)
			p.expect(math.Abs(res.Dirs[0].Gbps-want) <= 0.001, "%f Gbps, formula %f", res.Dirs[0].Gbps, want)
		}},
	{"ext-warmup-snabb-ramp", "extension: warmup dynamics",
		"Without a warmup lead-in Snabb's first of 8 p2p windows runs on cold LuaJIT traces, below 85 % of its last.", reproduced, func(p *probe) {
			// RunWindows series are cells of their own, outside the shared set.
			pts, res, err := RunWindows(Config{Switch: "snabb", Scenario: P2P, Warmup: units.Microsecond, Duration: 8 * units.Millisecond}, 8)
			p.must(err)
			first, last := pts[0].Gbps, pts[len(pts)-1].Gbps
			p.expect(len(pts) == 8 && res.Gbps > 0 && first < last*0.85, "%d windows, first %.2f, last %.2f", len(pts), first, last)
		}},
	{"ext-warmup-bess-flat", "extension: warmup dynamics",
		"After 1 ms of warmup BESS is flat at 9.9–10.1 Gbps in each of 4 p2p windows.", reproduced, func(p *probe) {
			pts, _, err := RunWindows(Config{Switch: "bess", Scenario: P2P, Warmup: units.Millisecond, Duration: 4 * units.Millisecond}, 4)
			p.must(err)
			for _, w := range pts {
				p.expect(w.Gbps >= 9.9 && w.Gbps <= 10.1, "window at %v = %.2f Gbps", w.Start, w.Gbps)
			}
		}},
	{"ext-churn-emc-knee", "extension: cache churn",
		"Past its 8192-entry EMC (32 768 vs 2048 flows) OvS evicts and slows; under churn its update counter tracks the rate (10 k ops/s over 2 ms = 20).", reproduced, func(p *probe) {
			under := p.run(Config{Switch: "ovs", Scenario: P2P, Flows: 2048, Duration: 2 * units.Millisecond, Warmup: units.Millisecond})
			over := p.run(Config{Switch: "ovs", Scenario: P2P, Flows: 32768, Duration: 2 * units.Millisecond, Warmup: units.Millisecond})
			p.expect(over.EMCEvictions > 0 && over.Gbps < under.Gbps, "32768 flows: %d evictions, %.2f Gbps; 2048 flows %.2f Gbps",
				over.EMCEvictions, over.Gbps, under.Gbps)
			n := p.run(churnCfg("ovs")).RuleUpdates
			p.expect(n == 20, "RuleUpdates = %d", n)
		}},
	{"ext-zipf-hot-flows", "extension: cache churn",
		"At 32 768 flows a zipf(1.1) mix keeps OvS's EMC hot: faster and fewer evictions than round-robin.", reproduced, func(p *probe) {
			rr := Config{Switch: "ovs", Scenario: P2P, Flows: 32768, Duration: 2 * units.Millisecond, Warmup: units.Millisecond}
			zipf := rr
			zipf.ZipfSkew = 1.1
			r1, r2 := p.run(rr), p.run(zipf)
			p.expect(r2.Gbps > r1.Gbps && r2.EMCEvictions < r1.EMCEvictions, "zipf %.2f Gbps / %d evictions, round-robin %.2f / %d",
				r2.Gbps, r2.EMCEvictions, r1.Gbps, r1.EMCEvictions)
		}},
	{"ext-multicore-scaling", "extension: multi-core (§6)",
		"Two cores never lose bidirectional p2p throughput (1 % slack) for OvS, t4p4s, VPP, FastClick and BESS, nearly double CPU-bound OvS and t4p4s (≥ 1.6×), and stay within the 20 G line.", reproduced, func(p *probe) {
			for _, name := range []string{"ovs", "t4p4s", "vpp", "fastclick", "bess"} {
				one := p.gbps(Config{Switch: name, Scenario: P2P, Bidir: true})
				two := p.gbps(Config{Switch: name, Scenario: P2P, Bidir: true, SUTCores: 2})
				gain := 0.99
				if name == "ovs" || name == "t4p4s" {
					gain = 1.6
				}
				p.expect(two >= one*gain && two <= 20.01, "%s: 2 cores %.2f, 1 core %.2f", name, two, one)
			}
		}},
	{"ext-multicore-loopback", "extension: multi-core (§6)",
		"Four cores lift VPP's 2-VNF loopback to at least 1.5× one core.", reproduced, func(p *probe) {
			one := p.gbps(Config{Switch: "vpp", Scenario: Loopback, Chain: 2})
			four := p.gbps(Config{Switch: "vpp", Scenario: Loopback, Chain: 2, SUTCores: 4})
			p.expect(four >= one*1.5, "4 cores %.2f, 1 core %.2f", four, one)
		}},
}

// valeTail is one of Table 3's VALE misses: the paper's congestion tail
// (RTT at 0.99·R⁺ above 0.50·R⁺) that the model's NAPI-mode netmap does
// not show.
func valeTail(id, where string, paper99, paper50 int, cfg Config) claim {
	cfg.Switch = "vale"
	return claim{id, "§5.3, Table 3",
		fmt.Sprintf("VALE's %s RTT at 0.99·R⁺ exceeds its RTT at 0.50·R⁺ (paper %d vs %d µs).", where, paper99, paper50),
		notReproduced, func(p *probe) {
			us := p.latency(cfg, 0.50, 0.99)
			p.expect(us[1] > us[0], "%.1f µs at 0.99·R⁺, %.1f at 0.50·R⁺", us[1], us[0])
		}}
}

// TestPaperClaims runs every claim as a subtest at seed 1 over one shared
// set of cells and fails where a verdict differs from the expected one.
// With -v it lists every claim's verdict.
func TestPaperClaims(t *testing.T) {
	cells := &cellGetter{memo: map[Config]SpecOutcome{}}
	for _, c := range paperClaims {
		t.Run(c.id, func(t *testing.T) {
			p := &probe{t: t, cells: cells}
			c.check(p)
			held := len(p.misses) == 0
			verdict, now := "reproduced", "holds"
			if !held {
				verdict, now = "not reproduced", "fails"
			}
			t.Logf("%s — %s: %s", verdict, c.locus, c.text)
			for _, m := range p.misses {
				t.Log("  " + m)
			}
			if held != c.want {
				t.Errorf("claim %s now %s: flip its expected verdict", c.id, now)
			}
		})
	}
	if cells.runs != len(cells.memo) {
		t.Errorf("%d runs for %d distinct cells", cells.runs, len(cells.memo))
	}
	t.Logf("%d distinct cells", len(cells.memo))
}

// TestClaimsTaggedInExperiments holds the claim ids EXPERIMENTS.md tags
// equal to paperClaims'.
func TestClaimsTaggedInExperiments(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	tagged := map[string]bool{}
	for _, m := range regexp.MustCompile(`\[claim: ([^\]]*)\]`).FindAllSubmatch(doc, -1) {
		tagged[string(m[1])] = true
	}
	for i, c := range paperClaims {
		if !tagged[c.id] {
			t.Errorf("claim %s is not tagged in EXPERIMENTS.md", c.id)
		}
		delete(tagged, c.id)
		for _, d := range paperClaims[:i] {
			if d.id == c.id {
				t.Errorf("claim id %s appears twice", c.id)
			}
		}
	}
	for id := range tagged {
		t.Errorf("EXPERIMENTS.md tags %q, which is no claim", id)
	}
}

// cellGetter is the claims' one source of results: it runs each distinct
// canonical cell once, whoever asks — a claim directly, or Figure1On and
// Table4On through its Runner side — and counts the runs.
type cellGetter struct {
	memo map[Config]SpecOutcome
	runs int
}

// RunAll implements Runner.
func (g *cellGetter) RunAll(specs []Config) []SpecOutcome {
	outs := make([]SpecOutcome, len(specs))
	for i, cfg := range specs {
		key := cfg.Canonical()
		o, ok := g.memo[key]
		if !ok {
			g.runs++
			o.Result, o.Err = Run(key)
			g.memo[key] = o
		}
		outs[i] = o
	}
	return outs
}

// probe is one claim's view of the shared cells. It collects the ways the
// claim fails; a cell that cannot run fails the subtest outright.
type probe struct {
	t      *testing.T
	cells  *cellGetter
	misses []string
}

// expect records a miss unless ok.
func (p *probe) expect(ok bool, format string, args ...any) {
	if !ok {
		p.misses = append(p.misses, fmt.Sprintf(format, args...))
	}
}

func (p *probe) must(err error) {
	if err != nil {
		p.t.Fatal(err)
	}
}

// atQuick gives cfg Quick's windows unless it sets its own.
func atQuick(cfg Config) Config {
	if cfg.Duration == 0 {
		cfg.Duration, cfg.Warmup = Quick.Duration, Quick.Warmup
	}
	return cfg
}

func (p *probe) run(cfg Config) Result {
	o := p.cells.RunAll([]Config{atQuick(cfg)})[0]
	p.must(o.Err)
	return o.Result
}

func (p *probe) gbps(cfg Config) float64 { return p.run(cfg).Gbps }

// rPlus is EstimateRPlus over the shared cells.
func (p *probe) rPlus(cfg Config) float64 {
	cfg = atQuick(cfg)
	rp, err := rPlusFromResult(cfg, p.run(RPlusConfig(cfg)))
	p.must(err)
	return rp
}

// ndr is name's 64 B p2p NDR search and its R⁺ from the shared cells;
// the search's own trials bypass them.
func (p *probe) ndr(name string, opts NDROptions) (NDRResult, float64) {
	cfg := atQuick(Config{Switch: name, Scenario: P2P})
	res, err := FindNDR(cfg, opts)
	p.must(err)
	return res, p.rPlus(cfg)
}

// latency is LatencyProfile over the shared cells: mean RTT at each
// load·R⁺.
func (p *probe) latency(cfg Config, loads ...float64) []float64 {
	cfg = atQuick(cfg)
	rp := p.rPlus(cfg)
	us := make([]float64, len(loads))
	for i, l := range loads {
		us[i] = p.run(LatencyConfig(cfg, rp, l)).Latency.MeanUs
	}
	return us
}

// spearman is the rank correlation of a and b (ties ranked by position).
func spearman(a, b []float64) float64 {
	rank := func(vals []float64) []int {
		r := make([]int, len(vals))
		for i := range vals {
			for j := range vals {
				if vals[j] < vals[i] || (vals[j] == vals[i] && j < i) {
					r[i]++
				}
			}
		}
		return r
	}
	ra, rb := rank(a), rank(b)
	n := float64(len(a))
	var d2 float64
	for i := range ra {
		d := float64(ra[i] - rb[i])
		d2 += d * d
	}
	return 1 - 6*d2/(n*(n*n-1))
}
