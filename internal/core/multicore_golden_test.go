package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/units"
)

func resultDigest(t *testing.T, res Result) string {
	t.Helper()
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256(blob)
	return hex.EncodeToString(h[:16])
}

// multiCoreGoldens pins full Result JSON digests for the
// multi-core dispatch paths: RSS under both steering policies and the
// RTC pipeline, with the NUMA boundary crossed by the 16-core case, and
// mid-run rule churn on an RSS and an RTC fleet.
// These are the multi-core counterpart of guestPathGoldens:
// any change to the fleet fan-out, the demux/handoff rings, the steer
// and remote taxes, or per-core accounting shows up here as a digest
// mismatch. Re-pin only with an argued equivalence (see DESIGN.md §3.3).
// TestPinnedGoldens runs the table.
func multiCoreGoldens() []goldenCell {
	return []goldenCell{
		{Config{Switch: "vpp", Scenario: P2P, FrameLen: 64, Bidir: true, SUTCores: 2}, "9606ad8900076a88214c1d88e8d84f19"},
		{Config{Switch: "ovs", Scenario: P2P, FrameLen: 64, Bidir: true, Flows: 64,
			SUTCores: 4, Dispatch: DispatchRSS, RSSPolicy: RSSFlowHash}, "fab857c63d4e8be743e72bd24e04490c"},
		{Config{Switch: "vpp", Scenario: P2P, FrameLen: 64, Bidir: true, Flows: 64,
			SUTCores: 4, Dispatch: DispatchRTC}, "c2660b6f055c1bf654be77e12c3d23bf"},
		{Config{Switch: "fastclick", Scenario: Loopback, Chain: 2, FrameLen: 64,
			SUTCores: 4, Dispatch: DispatchRSS, RSSPolicy: RSSFlowHash}, "f42c686be10634810d28ba1ec2323a6a"},
		{Config{Switch: "ovs", Scenario: P2P, FrameLen: 1500, Bidir: true, Flows: 64,
			SUTCores: 16, Dispatch: DispatchRSS, RSSPolicy: RSSFlowHash}, "1fcfd9a9bc3e7d3ada1d0e60241b3191"},
		// Mid-run rule churn broadcast through the fleet to every shard.
		{Config{Switch: "ovs", Scenario: P2P, FrameLen: 64, Bidir: true, Flows: 64,
			SUTCores: 2, Dispatch: DispatchRSS, RSSPolicy: RSSFlowHash, RuleUpdateRate: 100000}, "0076d11bf6473ddc5b8a3397c894a213"},
		{Config{Switch: "vpp", Scenario: P2P, FrameLen: 64, Bidir: true, Flows: 64,
			SUTCores: 4, Dispatch: DispatchRTC, RuleUpdateRate: 100000}, "1f74655070a230cf9d2aca8c0284791b"},
		// Round-robin over a mix of phys ports and guest interfaces: each
		// single-queue port goes whole to the next core in declaration
		// order, wrapping past the core count.
		{Config{Switch: "vpp", Scenario: Loopback, Chain: 2, FrameLen: 64, SUTCores: 3}, "b114747b4e366a3ed24188c64b3aff16"},
	}
}

// TestMultiCoreDigestDeterminism: a fixed seed reproduces the entire
// multi-core Result bit for bit, demuxes, handoff rings and all.
func TestMultiCoreDigestDeterminism(t *testing.T) {
	cfg := Config{Switch: "vpp", Scenario: P2P, FrameLen: 64, Bidir: true, Flows: 64,
		SUTCores: 4, Dispatch: DispatchRTC,
		Duration: 2 * units.Millisecond, Warmup: units.Millisecond}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if da, db := resultDigest(t, a), resultDigest(t, b); da != db {
		t.Fatalf("non-deterministic multi-core run: %s vs %s", da, db)
	}
}

// TestValidateMultiCore covers the dispatch-dimension rejection rules.
func TestValidateMultiCore(t *testing.T) {
	bad := []Config{
		// Dispatch dimensions are meaningless on one core.
		{Switch: "vpp", Scenario: P2P, SUTCores: 1, Dispatch: DispatchRSS},
		{Switch: "vpp", Scenario: P2P, SUTCores: 1, Dispatch: DispatchRTC},
		{Switch: "vpp", Scenario: P2P, RSSPolicy: RSSFlowHash},
		// Unknown enum values.
		{Switch: "vpp", Scenario: P2P, SUTCores: 2, Dispatch: "pipeline"},
		{Switch: "vpp", Scenario: P2P, SUTCores: 2, Dispatch: DispatchRSS, RSSPolicy: "spray"},
		// RSS policy on an RTC pipeline.
		{Switch: "vpp", Scenario: P2P, SUTCores: 4, Dispatch: DispatchRTC, RSSPolicy: RSSFlowHash},
		// Round-robin cannot feed 4 cores from p2p's 2 single-queue ports.
		{Switch: "vpp", Scenario: P2P, SUTCores: 4, Dispatch: DispatchRSS, RSSPolicy: RSSRoundRobin},
		// Flow-hash has no physical port to spread in v2v: 4 cores, 2
		// guest interfaces.
		{Switch: "vpp", Scenario: V2V, SUTCores: 4, Dispatch: DispatchRSS, RSSPolicy: RSSFlowHash},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", cfg)
		}
	}
	good := []Config{
		{Switch: "vpp", Scenario: P2P, SUTCores: 2},
		{Switch: "vpp", Scenario: P2P, SUTCores: 4, Dispatch: DispatchRSS, RSSPolicy: RSSFlowHash},
		{Switch: "vpp", Scenario: P2P, SUTCores: 2, Dispatch: DispatchRTC},
		{Switch: "vpp", Scenario: Loopback, Chain: 3, SUTCores: 4, Dispatch: DispatchRSS},
		{Switch: "vpp", Scenario: V2V, SUTCores: 2, Dispatch: DispatchRSS, RSSPolicy: RSSFlowHash},
	}
	for _, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%+v): %v", cfg, err)
		}
	}
}
