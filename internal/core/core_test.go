package core

import (
	"errors"
	"testing"

	"repro/internal/pkt"
	"repro/internal/switches/switchdef"
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

// TestDeterminismAcrossRuns: the seed is part of what a run is a function
// of — a different one must change something (jitter paths). That a fixed
// seed repeats bit for bit is TestPinnedGoldens', which runs every pinned
// cell several times in one process.
func TestDeterminismAcrossRuns(t *testing.T) {
	cfg := Config{Switch: "ovs", Scenario: Loopback, Chain: 2, Bidir: true,
		ProbeEvery: 40 * units.Microsecond,
		Duration:   3 * units.Millisecond, Warmup: units.Millisecond}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 99
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Steps == a.Steps && c.Latency.MeanUs == a.Latency.MeanUs {
		t.Fatal("seed had no effect")
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

func TestMultiCoreUnsupportedForVALE(t *testing.T) {
	_, err := Run(Config{Switch: "vale", Scenario: P2P, SUTCores: 2,
		Duration: units.Millisecond, Warmup: units.Millisecond})
	if err == nil {
		t.Fatal("multi-core VALE accepted")
	}
}

func TestMultiCoreDeterministic(t *testing.T) {
	cfg := Config{Switch: "ovs", Scenario: P2P, Bidir: true, SUTCores: 2,
		Duration: 2 * units.Millisecond, Warmup: units.Millisecond}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Steps != b.Steps || a.Gbps != b.Gbps {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
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

func TestRunWindowsValidation(t *testing.T) {
	if _, _, err := RunWindows(Config{Switch: "vpp"}, 0); err == nil {
		t.Fatal("zero windows accepted")
	}
}
