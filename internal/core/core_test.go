package core

import (
	"errors"
	"testing"

	"repro/internal/units"
)

func quickRun(t *testing.T, cfg Config) Result {
	t.Helper()
	cfg.Duration = 4 * units.Millisecond
	cfg.Warmup = 2 * units.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run(%+v): %v", cfg, err)
	}
	return res
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{Switch: "vpp", FrameLen: 40},
		{Switch: "vpp", FrameLen: 4000},
		{Switch: "vpp", Scenario: P2P, Reversed: true},
		{Switch: "vpp", Scenario: P2P, LatencyTopology: true},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", cfg)
		}
	}
	if err := (Config{Switch: "vpp"}).Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestUnknownSwitchFails(t *testing.T) {
	if _, err := Run(Config{Switch: "hyperswitch"}); err == nil {
		t.Fatal("unknown switch ran")
	}
}

func TestBESSChainCap(t *testing.T) {
	_, err := Run(Config{Switch: "bess", Scenario: Loopback, Chain: 4})
	if !errors.Is(err, ErrChainTooLong) {
		t.Fatalf("err = %v", err)
	}
	// Chain of 3 is fine.
	res := quickRun(t, Config{Switch: "bess", Scenario: Loopback, Chain: 3})
	if res.Gbps <= 0 {
		t.Fatal("3-VNF chain forwarded nothing")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	cfg := Config{Switch: "ovs", Scenario: Loopback, Chain: 2, Bidir: true,
		ProbeEvery: 40 * units.Microsecond,
		Duration:   3 * units.Millisecond, Warmup: units.Millisecond}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Steps != b.Steps || a.Gbps != b.Gbps || a.Drops != b.Drops ||
		a.Latency.MeanUs != b.Latency.MeanUs {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
	// A different seed must actually change something (jitter paths).
	cfg.Seed = 99
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Steps == a.Steps && c.Latency.MeanUs == a.Latency.MeanUs {
		t.Fatal("seed had no effect")
	}
}

func TestNoLossWellBelowRPlus(t *testing.T) {
	// At half load every switch must deliver (virtually) everything —
	// the paper's premise for latency measurements below R⁺.
	for _, name := range []string{"bess", "vpp", "vale", "t4p4s"} {
		for _, scn := range []ScenarioKind{P2P, P2V, Loopback} {
			base := Config{Switch: name, Scenario: scn,
				Duration: 3 * units.Millisecond, Warmup: 2 * units.Millisecond}
			rp, err := EstimateRPlus(base)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, scn, err)
			}
			base.Rate = units.RateForPPS(rp*0.5, 64)
			res, err := Run(base)
			if err != nil {
				t.Fatal(err)
			}
			offered := rp * 0.5 * res.Config.Duration.Seconds()
			if res.Dirs[0].RxPackets < int64(offered*0.98) {
				t.Errorf("%s/%v: delivered %d of ~%.0f at half load (drops=%d)",
					name, scn, res.Dirs[0].RxPackets, offered, res.Drops)
			}
		}
	}
}

func TestSaturatedThroughputOrderingP2P(t *testing.T) {
	// The paper's Fig. 4a ordering at 64B must hold.
	g := map[string]float64{}
	for _, name := range Switches {
		g[name] = quickRun(t, Config{Switch: name, Scenario: P2P}).Gbps
	}
	for _, fast := range []string{"bess", "fastclick", "vpp"} {
		if g[fast] < 9.9 {
			t.Errorf("%s = %.2f, want line rate", fast, g[fast])
		}
	}
	if !(g["snabb"] > g["ovs"] && g["ovs"] > g["vale"]) {
		t.Errorf("ordering violated: snabb=%.2f ovs=%.2f vale=%.2f", g["snabb"], g["ovs"], g["vale"])
	}
	if g["vale"] > 6.5 || g["t4p4s"] > 6.5 {
		t.Errorf("vale/t4p4s too fast: %.2f / %.2f", g["vale"], g["t4p4s"])
	}
}

func TestBESSBidirP2PDominates(t *testing.T) {
	best := quickRun(t, Config{Switch: "bess", Scenario: P2P, Bidir: true}).Gbps
	if best < 14 || best > 18 {
		t.Fatalf("BESS bidir p2p = %.2f, want ~16 (paper)", best)
	}
	for _, other := range []string{"fastclick", "vpp"} {
		got := quickRun(t, Config{Switch: other, Scenario: P2P, Bidir: true}).Gbps
		if got >= best {
			t.Errorf("%s (%.2f) beats BESS (%.2f) bidir p2p", other, got, best)
		}
		if got < 10 {
			t.Errorf("%s bidir = %.2f, paper says it exceeds 10G", other, got)
		}
	}
}

func TestVhostTaxP2VvsP2P(t *testing.T) {
	// The vhost-user copy tax: p2v < p2p for the DPDK switches at 64B…
	for _, name := range []string{"fastclick", "vpp", "ovs", "snabb", "t4p4s"} {
		p2p := quickRun(t, Config{Switch: name, Scenario: P2P}).Gbps
		p2v := quickRun(t, Config{Switch: name, Scenario: P2V}).Gbps
		if p2v >= p2p {
			t.Errorf("%s: p2v (%.2f) not below p2p (%.2f)", name, p2v, p2p)
		}
	}
	// …while VALE improves slightly thanks to zero-copy ptnet, and BESS
	// still saturates.
	p2p := quickRun(t, Config{Switch: "vale", Scenario: P2P}).Gbps
	p2v := quickRun(t, Config{Switch: "vale", Scenario: P2V}).Gbps
	if p2v <= p2p {
		t.Errorf("vale: p2v (%.2f) not above p2p (%.2f)", p2v, p2p)
	}
	if bess := quickRun(t, Config{Switch: "bess", Scenario: P2V}).Gbps; bess < 9.9 {
		t.Errorf("bess p2v = %.2f, want line rate", bess)
	}
}

func TestVALEDominatesV2V(t *testing.T) {
	vale := quickRun(t, Config{Switch: "vale", Scenario: V2V}).Gbps
	if vale < 9.5 {
		t.Fatalf("vale v2v = %.2f, want ~10.5", vale)
	}
	for _, other := range []string{"bess", "vpp", "snabb", "ovs", "t4p4s", "fastclick"} {
		got := quickRun(t, Config{Switch: other, Scenario: V2V}).Gbps
		if got >= vale {
			t.Errorf("%s v2v (%.2f) beats VALE (%.2f)", other, got, vale)
		}
		if got > 7.6 {
			t.Errorf("%s v2v = %.2f, paper caps others below 7.4", other, got)
		}
	}
}

func TestSnabbV2VBeatsItsP2V(t *testing.T) {
	p2v := quickRun(t, Config{Switch: "snabb", Scenario: P2V}).Gbps
	v2v := quickRun(t, Config{Switch: "snabb", Scenario: V2V}).Gbps
	if v2v <= p2v {
		t.Fatalf("snabb v2v (%.2f) not above p2v (%.2f) — paper §5.2", v2v, p2v)
	}
}

func TestVPPReversedP2VPenalty(t *testing.T) {
	fwd := quickRun(t, Config{Switch: "vpp", Scenario: P2V}).Gbps
	rev := quickRun(t, Config{Switch: "vpp", Scenario: P2V, Reversed: true}).Gbps
	if rev >= fwd {
		t.Fatalf("reversed p2v (%.2f) not below forward (%.2f) — paper §5.2", rev, fwd)
	}
}

func TestLoopbackThroughputDecreasesWithChain(t *testing.T) {
	for _, name := range []string{"vpp", "vale", "ovs"} {
		prev := 1e9
		for chain := 1; chain <= 4; chain++ {
			got := quickRun(t, Config{Switch: name, Scenario: Loopback, Chain: chain}).Gbps
			if got > prev*1.02 {
				t.Errorf("%s: chain %d (%.2f) above chain %d (%.2f)", name, chain, got, chain-1, prev)
			}
			prev = got
		}
	}
}

func TestVALEOvertakesInLongChains(t *testing.T) {
	// Paper Fig. 5: as chains grow, VALE leads.
	for _, other := range []string{"vpp", "fastclick", "snabb", "ovs", "t4p4s"} {
		vale := quickRun(t, Config{Switch: "vale", Scenario: Loopback, Chain: 4}).Gbps
		got := quickRun(t, Config{Switch: other, Scenario: Loopback, Chain: 4}).Gbps
		if got >= vale {
			t.Errorf("%s (%.2f) beats VALE (%.2f) at 4-VNF", other, got, vale)
		}
	}
}

func TestSnabbCollapsesAtFourVNFs(t *testing.T) {
	three := quickRun(t, Config{Switch: "snabb", Scenario: Loopback, Chain: 3}).Gbps
	four := quickRun(t, Config{Switch: "snabb", Scenario: Loopback, Chain: 4}).Gbps
	if four > three*0.6 {
		t.Fatalf("no collapse: 3-VNF %.2f vs 4-VNF %.2f", three, four)
	}
}

func TestAllSaturateAt1024Uni(t *testing.T) {
	// Paper: everything ≥256B saturates unidirectional p2p.
	for _, name := range Switches {
		got := quickRun(t, Config{Switch: name, Scenario: P2P, FrameLen: 1024}).Gbps
		if got < 9.9 {
			t.Errorf("%s p2p 1024B = %.2f, want line rate", name, got)
		}
	}
}

func TestOnlyVALEAndT4P4SMissBidir20G(t *testing.T) {
	for _, name := range Switches {
		got := quickRun(t, Config{Switch: name, Scenario: P2P, FrameLen: 1024, Bidir: true}).Gbps
		limited := name == "vale" || name == "t4p4s"
		if limited && got >= 19.9 {
			t.Errorf("%s reaches 20G at 1024B bidir, paper says it cannot", name)
		}
		if !limited && got < 19.9 {
			t.Errorf("%s = %.2f at 1024B bidir, want 20G", name, got)
		}
	}
}

func TestSUTBusyFracSaturated(t *testing.T) {
	// A CPU-limited switch at saturation is ~100% busy; a lightly loaded
	// one mostly idle-polls.
	ovs := quickRun(t, Config{Switch: "ovs", Scenario: P2P})
	if ovs.SUTBusyFrac < 0.85 {
		t.Errorf("ovs busy = %.2f at saturation", ovs.SUTBusyFrac)
	}
	bess := quickRun(t, Config{Switch: "bess", Scenario: P2P, Rate: units.Gbps})
	if bess.SUTBusyFrac > 0.7 {
		t.Errorf("bess busy = %.2f at 10%% load, should be mostly idle", bess.SUTBusyFrac)
	}
}

func TestLatencyLoadLadder(t *testing.T) {
	// 0.99·R⁺ latency ≥ 0.50·R⁺ latency for every switch in p2p.
	for _, name := range []string{"vpp", "ovs", "t4p4s"} {
		pts, err := LatencyProfile(Config{Switch: name, Scenario: P2P,
			Duration: 4 * units.Millisecond, Warmup: 2 * units.Millisecond}, []float64{0.50, 0.99})
		if err != nil {
			t.Fatal(err)
		}
		if pts[1].Summary.MeanUs < pts[0].Summary.MeanUs*0.95 {
			t.Errorf("%s: 0.99R+ (%.1f) below 0.50R+ (%.1f)",
				name, pts[1].Summary.MeanUs, pts[0].Summary.MeanUs)
		}
	}
}

func TestLoopbackLowLoadBatchingInflation(t *testing.T) {
	// Table 3: 0.10·R⁺ loopback latency exceeds 0.50·R⁺ for DPDK
	// switches (strict l2fwd batching) but not for VALE.
	for _, name := range []string{"vpp", "bess", "fastclick"} {
		pts, err := LatencyProfile(Config{Switch: name, Scenario: Loopback, Chain: 1,
			Duration: 4 * units.Millisecond, Warmup: 2 * units.Millisecond}, []float64{0.10, 0.50})
		if err != nil {
			t.Fatal(err)
		}
		if pts[0].Summary.MeanUs <= pts[1].Summary.MeanUs {
			t.Errorf("%s: 0.10R+ (%.1f) not above 0.50R+ (%.1f)",
				name, pts[0].Summary.MeanUs, pts[1].Summary.MeanUs)
		}
	}
	pts, err := LatencyProfile(Config{Switch: "vale", Scenario: Loopback, Chain: 1,
		Duration: 4 * units.Millisecond, Warmup: 2 * units.Millisecond}, []float64{0.10, 0.50})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Summary.MeanUs > pts[1].Summary.MeanUs*2 {
		t.Errorf("vale low-load inflation too strong: %.1f vs %.1f",
			pts[0].Summary.MeanUs, pts[1].Summary.MeanUs)
	}
}

func TestVALEBestV2VLatency(t *testing.T) {
	rows, err := Table4On(SerialRunner{}, Quick)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, r := range rows {
		byName[r.Switch] = r.MeanUs
	}
	for name, v := range byName {
		if name == "vale" {
			continue
		}
		if byName["vale"] >= v {
			t.Errorf("vale (%.1f) not below %s (%.1f) in Table 4", byName["vale"], name, v)
		}
	}
	if byName["t4p4s"] < byName["vpp"] {
		t.Errorf("t4p4s (%.1f) should be worst-tier vs vpp (%.1f)", byName["t4p4s"], byName["vpp"])
	}
}

func TestInterruptModeLatencyFloor(t *testing.T) {
	// VALE's p2p latency floor is interrupt moderation (~ITR), an order
	// of magnitude above the DPDK switches at low load.
	valePts, err := LatencyProfile(Config{Switch: "vale", Scenario: P2P,
		Duration: 4 * units.Millisecond, Warmup: 2 * units.Millisecond}, []float64{0.10})
	if err != nil {
		t.Fatal(err)
	}
	vppPts, err := LatencyProfile(Config{Switch: "vpp", Scenario: P2P,
		Duration: 4 * units.Millisecond, Warmup: 2 * units.Millisecond}, []float64{0.10})
	if err != nil {
		t.Fatal(err)
	}
	if valePts[0].Summary.MeanUs < 5*vppPts[0].Summary.MeanUs {
		t.Fatalf("vale floor %.1f not ≫ vpp floor %.1f",
			valePts[0].Summary.MeanUs, vppPts[0].Summary.MeanUs)
	}
}

// TestFigure1NegativeCorrelation asserts the paper's opening observation:
// ranking the switches by bidirectional p2p throughput inverts the ranking
// by latency (Spearman correlation strongly negative).
func TestFigure1NegativeCorrelation(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	pts, err := Figure1On(SerialRunner{}, RunOpts{Duration: 3 * units.Millisecond, Warmup: 2 * units.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
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
	var thr, lat []float64
	for _, p := range pts {
		thr = append(thr, p.Gbps)
		lat = append(lat, p.MeanUs)
	}
	rt, rl := rank(thr), rank(lat)
	// Spearman rho.
	n := float64(len(pts))
	var d2 float64
	for i := range rt {
		d := float64(rt[i] - rl[i])
		d2 += d * d
	}
	rho := 1 - 6*d2/(n*(n*n-1))
	if rho > -0.4 {
		t.Fatalf("Spearman rho = %.2f, want strongly negative (paper Fig. 1)", rho)
	}
}

// TestOverloadDropsAccounted: at saturation the slow switches must drop the
// difference between offered and capacity — and account for it.
func TestOverloadDropsAccounted(t *testing.T) {
	res := quickRun(t, Config{Switch: "t4p4s", Scenario: P2P})
	offered := units.TenGigE.MaxPPS(64) * res.Config.Duration.Seconds()
	delivered := float64(res.Dirs[0].RxPackets)
	lost := offered - delivered
	if lost < offered*0.3 {
		t.Fatalf("t4p4s at saturation lost only %.0f of %.0f", lost, offered)
	}
	// The loss shows up in the drop counters (within the in-flight slack
	// of rings and staged buffers).
	if float64(res.Drops) < lost*0.9 {
		t.Fatalf("drops=%d do not account for %.0f lost frames", res.Drops, lost)
	}
}

// TestProbesSurviveChain: latency probes must traverse every copy along a
// 3-VNF chain and come back countable.
func TestProbesSurviveChain(t *testing.T) {
	res, err := Run(Config{Switch: "ovs", Scenario: Loopback, Chain: 3,
		Rate:       units.Gbps / 2,
		ProbeEvery: 50 * units.Microsecond,
		Duration:   4 * units.Millisecond, Warmup: 2 * units.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.N < 60 {
		t.Fatalf("probes returned = %d", res.Latency.N)
	}
	if res.Latency.MeanUs <= 0 {
		t.Fatal("non-positive RTT")
	}
}

// TestSeedsProduceDistinctButCloseThroughput: different seeds shift jitter
// streams without changing capacity materially.
func TestSeedsProduceDistinctButCloseThroughput(t *testing.T) {
	a := quickRun(t, Config{Switch: "ovs", Scenario: P2P, Seed: 1})
	b := quickRun(t, Config{Switch: "ovs", Scenario: P2P, Seed: 12345})
	rel := (a.Gbps - b.Gbps) / a.Gbps
	if rel < 0 {
		rel = -rel
	}
	if rel > 0.05 {
		t.Fatalf("seed sensitivity too high: %.2f vs %.2f", a.Gbps, b.Gbps)
	}
}
