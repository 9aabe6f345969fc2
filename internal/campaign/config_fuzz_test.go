package campaign

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/units"
)

// FuzzConfigValidate: Validate never panics on a config decoded from any
// JSON, and a config it accepts survives a JSON round trip — the decoded
// copy still validates and has the same CacheKey, the address every result
// store files the cell under. The corpus starts from the shipped custom
// topology and a cell of each pinned golden table.
func FuzzConfigValidate(f *testing.F) {
	chain3, err := os.ReadFile("../../examples/customtopo/chain3.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{"Switch":"ovs","Scenario":4,"FrameLen":64,"ProbeEvery":20000000,"Topology":` + string(chain3) + `}`))
	for _, cfg := range []core.Config{
		{Switch: "vpp", Scenario: core.P2V, FrameLen: 64},
		{Switch: "snabb", Scenario: core.P2V, FrameLen: 1024, Bidir: true},
		{Switch: "vpp", Scenario: core.V2V, FrameLen: 64, LatencyTopology: true, Rate: units.Gbps, ProbeEvery: 20 * units.Microsecond},
		{Switch: "vale", Scenario: core.Loopback, Chain: 2, FrameLen: 64},
		{Switch: "vpp", Scenario: core.P2V, Reversed: true},
		{Switch: "fastclick", Scenario: core.Loopback, Chain: 2, Containers: true},
		{Switch: "ovs", Scenario: core.P2P, FrameLen: 64, Bidir: true, Flows: 64,
			SUTCores: 4, Dispatch: core.DispatchRSS, RSSPolicy: core.RSSFlowHash},
		{Switch: "vpp", Scenario: core.P2P, FrameLen: 64, Bidir: true, Flows: 64, SUTCores: 4, Dispatch: core.DispatchRTC},
		{Switch: "ovs", Scenario: core.P2P, FrameLen: 64, Flows: 8192, ZipfSkew: 1.1, RuleUpdateRate: 10000},
	} {
		blob, err := json.Marshal(cfg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		var cfg core.Config
		if json.Unmarshal(blob, &cfg) != nil || cfg.Validate() != nil {
			return
		}
		again, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("accepted config does not marshal: %v", err)
		}
		var back core.Config
		if err := json.Unmarshal(again, &back); err != nil {
			t.Fatalf("accepted config does not decode from its own JSON %s: %v", again, err)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("accepted config rejected after a JSON round trip %s: %v", again, err)
		}
		if k, kb := CacheKey(cfg), CacheKey(back); k != kb {
			t.Fatalf("JSON round trip moved the cache key %s to %s (%s)", k, kb, again)
		}
	})
}
