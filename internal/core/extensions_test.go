package core

import (
	"testing"

	"repro/internal/pkt"
	"repro/internal/switches/switchdef"
	"repro/internal/units"
)

// TestNDRConvergesNearRPlusForStableSwitch: for a stable switch (VPP), the
// RFC 2544 NDR lands in the same region as R⁺.
func TestNDRConvergesNearRPlusForStableSwitch(t *testing.T) {
	base := Config{Switch: "vpp", Scenario: P2P,
		Duration: 3 * units.Millisecond, Warmup: units.Millisecond}
	rp, err := EstimateRPlus(base)
	if err != nil {
		t.Fatal(err)
	}
	ndr, err := FindNDR(base, NDROptions{LossTolerance: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ndr.PPS < 0.5*rp {
		t.Fatalf("NDR %.2f Mpps way below R+ %.2f Mpps", ndr.PPS/1e6, rp/1e6)
	}
	if ndr.PPS > rp*1.05 {
		t.Fatalf("NDR %.2f Mpps above R+ %.2f Mpps", ndr.PPS/1e6, rp/1e6)
	}
	if len(ndr.Trials) < 3 {
		t.Fatalf("trials = %d", len(ndr.Trials))
	}
}

// TestNDRUnderestimatesRPlusForUnstableSwitch demonstrates the paper's
// footnote-3 critique: a strict zero-loss binary search converges to
// unreliable low points for jittery switches, while the R⁺ average does
// not.
func TestNDRUnderestimatesRPlusForUnstableSwitch(t *testing.T) {
	base := Config{Switch: "t4p4s", Scenario: P2P,
		Duration: 3 * units.Millisecond, Warmup: units.Millisecond}
	rp, err := EstimateRPlus(base)
	if err != nil {
		t.Fatal(err)
	}
	ndr, err := FindNDR(base, NDROptions{}) // strict RFC 2544: zero loss
	if err != nil {
		t.Fatal(err)
	}
	if ndr.PPS > 0.9*rp {
		t.Fatalf("strict NDR %.2f Mpps suspiciously close to R+ %.2f Mpps for an unstable pipeline",
			ndr.PPS/1e6, rp/1e6)
	}
}

func TestMultiFlowStressesOvSCaches(t *testing.T) {
	// Single flow: everything hits the EMC. Many thousands of flows:
	// the 8192-entry EMC thrashes and throughput falls (the paper notes
	// its single-flow traffic makes OvS's flow cache moot — this is the
	// complementary ablation).
	one := quickRun(t, Config{Switch: "ovs", Scenario: P2P, Flows: 1})
	many := quickRun(t, Config{Switch: "ovs", Scenario: P2P, Flows: 20000})
	if many.Gbps >= one.Gbps {
		t.Fatalf("20k flows (%.2f) not below 1 flow (%.2f)", many.Gbps, one.Gbps)
	}
	// A port-based forwarder without per-flow state barely notices.
	vone := quickRun(t, Config{Switch: "vpp", Scenario: P2P, Flows: 1})
	vmany := quickRun(t, Config{Switch: "vpp", Scenario: P2P, Flows: 20000})
	if vmany.Gbps < vone.Gbps*0.95 {
		t.Fatalf("vpp multi-flow dropped: %.2f vs %.2f", vmany.Gbps, vone.Gbps)
	}
}

// TestMultiFlowKeepsLearningSwitchForwarding: spreading traffic over flows
// must not change what a learning bridge forwards. The flow index once went
// into the source MAC bytes that tell SUT-port addresses apart, so flow 1
// entering port 0 carried the frame's own destination as its source; VALE
// learned the destination on the ingress port and dropped everything.
func TestMultiFlowKeepsLearningSwitchForwarding(t *testing.T) {
	within2pct := func(a, b float64) bool { return a > 0 && b > 0 && a/b < 1.02 && b/a < 1.02 }
	one := quickRun(t, Config{Switch: "vale", Scenario: P2P, Flows: 1})
	for _, flows := range []int{2, 64} {
		res := quickRun(t, Config{Switch: "vale", Scenario: P2P, Flows: flows})
		if !within2pct(res.Gbps, one.Gbps) {
			t.Errorf("vale p2p over %d flows = %.2f Gbps, single-flow %.2f", flows, res.Gbps, one.Gbps)
		}
	}
	bidir := quickRun(t, Config{Switch: "vale", Scenario: P2P, Flows: 64, Bidir: true})
	if !within2pct(bidir.Dirs[0].Gbps, bidir.Dirs[1].Gbps) {
		t.Errorf("vale bidirectional over 64 flows: directions %.2f / %.2f Gbps", bidir.Dirs[0].Gbps, bidir.Dirs[1].Gbps)
	}
	tb := &testbed{cfg: Config{FrameLen: 64}}
	for in := 0; in < 4; in++ {
		spec := tb.frameSpec(in, in^1)
		for flow := 0; flow < 1<<16; flow++ {
			src := pkt.EthSrc(spec.Template(flow).Image())
			port := int(src[4])<<8 | int(src[5])
			if src == switchdef.PortMAC(port) && (flow != 0 || port != in) {
				t.Fatalf("flow %d entering port %d carries source MAC %v, the address of SUT port %d", flow, in, src, port)
			}
		}
	}
}

func TestContainersRelaxBESSChainCap(t *testing.T) {
	// The QEMU incompatibility does not apply to containers.
	res := quickRun(t, Config{Switch: "bess", Scenario: Loopback, Chain: 5, Containers: true})
	if res.Gbps <= 0 {
		t.Fatal("containerized 5-VNF BESS chain forwarded nothing")
	}
}

func TestContainersOutperformVMs(t *testing.T) {
	for _, name := range []string{"vpp", "ovs"} {
		vm := quickRun(t, Config{Switch: name, Scenario: Loopback, Chain: 2})
		ct := quickRun(t, Config{Switch: name, Scenario: Loopback, Chain: 2, Containers: true})
		if ct.Gbps <= vm.Gbps {
			t.Errorf("%s: containers (%.2f) not above VMs (%.2f)", name, ct.Gbps, vm.Gbps)
		}
	}
}

func TestIMIXTraffic(t *testing.T) {
	// The paper notes realistic (large-average) traffic is easy for
	// every switch; the classic IMIX (~340B average) saturates the link
	// even for VALE and t4p4s.
	for _, name := range []string{"vale", "t4p4s", "ovs"} {
		res := quickRun(t, Config{Switch: name, Scenario: P2P, IMIX: true})
		if res.Gbps < 9.5 {
			t.Errorf("%s IMIX p2p = %.2f Gbps, want ~line rate", name, res.Gbps)
		}
		// Mixed sizes: mean frame length ≈ 340B, not 64B.
		mean := float64(res.Dirs[0].RxBytes) / float64(res.Dirs[0].RxPackets)
		if mean < 300 || mean > 380 {
			t.Errorf("%s IMIX mean frame = %.0fB, want ~340", name, mean)
		}
	}
}

func TestBytesBasedGbpsMatchesFixedSize(t *testing.T) {
	// For fixed-size traffic the bytes-based accounting must agree with
	// the frame-size formula.
	res := quickRun(t, Config{Switch: "bess", Scenario: P2P, FrameLen: 256})
	want := units.WireGbps(res.Dirs[0].RxPackets, 256, res.Config.Duration)
	if diff := res.Dirs[0].Gbps - want; diff > 0.001 || diff < -0.001 {
		t.Fatalf("gbps = %f, want %f", res.Dirs[0].Gbps, want)
	}
}

func TestRunWindowsShowsSnabbWarmup(t *testing.T) {
	// With no warmup lead-in, the first windows run on cold LuaJIT traces
	// and must be slower than the steady state.
	pts, res, err := RunWindows(Config{Switch: "snabb", Scenario: P2P,
		Warmup: units.Microsecond, Duration: 8 * units.Millisecond}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 8 {
		t.Fatalf("windows = %d", len(pts))
	}
	first, last := pts[0].Gbps, pts[len(pts)-1].Gbps
	if first >= last*0.85 {
		t.Fatalf("no warmup ramp: first=%.2f last=%.2f", first, last)
	}
	if res.Gbps <= 0 {
		t.Fatal("aggregate missing")
	}
}

func TestRunWindowsStableForBESS(t *testing.T) {
	pts, _, err := RunWindows(Config{Switch: "bess", Scenario: P2P,
		Warmup: units.Millisecond, Duration: 4 * units.Millisecond}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Gbps < 9.9 || p.Gbps > 10.1 {
			t.Fatalf("window at %v = %.2f Gbps", p.Start, p.Gbps)
		}
	}
}

func TestRunWindowsValidation(t *testing.T) {
	if _, _, err := RunWindows(Config{Switch: "vpp"}, 0); err == nil {
		t.Fatal("zero windows accepted")
	}
}
