package core

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/pkt"
	"repro/internal/topo"
	"repro/internal/units"
)

// churnCfg is the shared churn cell of these tests: mid-run rule edits
// against a Zipf flow mix, probes on (so rule-edit stalls show in RTT).
func churnCfg(name string) Config {
	return Config{Switch: name, Scenario: P2P, FrameLen: 64,
		Flows: 8192, ZipfSkew: 1.1, RuleUpdateRate: 10000,
		ProbeEvery: 100 * units.Microsecond,
		Duration:   2 * units.Millisecond, Warmup: units.Millisecond}
}

// churnGoldens pins full Result JSON digests for the mid-run
// rule-churn path on every programmable switch: the controller schedule,
// each switch's rule lowering and cache invalidation, the Zipf flow
// draw, and the RuleUpdates/EMCEvictions counters all feed the digest.
// Re-pin only with an argued equivalence (see DESIGN.md §3.7).
// TestPinnedGoldens runs the table.
func churnGoldens() []goldenCell {
	cases := []struct {
		name   string
		digest string
	}{
		{"ovs", "e579bc12b700791432fcf5f22f7d1b65"},
		{"vpp", "afd04577735a4ccfa6f2098f6d25e8f3"},
		{"fastclick", "80e07d4d7e2470c412e53f5746596ff1"},
		{"t4p4s", "8204a6564bfbe6a07de3a13bfc07effe"},
	}
	cells := make([]goldenCell, len(cases))
	for i, tc := range cases {
		cells[i] = goldenCell{churnCfg(tc.name), tc.digest}
	}
	return cells
}

// TestChurnValidate: every churn-knob violation is reported at once
// (errors.Join), and a non-programmable switch under rule churn fails
// with the typed ErrNoRuntimeRules.
func TestChurnValidate(t *testing.T) {
	bad := Config{Switch: "vale", Scenario: P2P,
		Flows: -1, ZipfSkew: -2, RuleUpdateRate: -5}
	err := bad.Validate()
	if err == nil {
		t.Fatal("invalid churn knobs validated clean")
	}
	for _, want := range []string{"Flows", "ZipfSkew", "RuleUpdateRate"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined validation error misses the %s violation: %v", want, err)
		}
	}

	tooMany := Config{Switch: "ovs", Scenario: P2P, Flows: pkt.MaxFlows + 1}
	if err := tooMany.Validate(); err == nil || !strings.Contains(err.Error(), "Flows") {
		t.Errorf("Flows past pkt.MaxFlows: validation = %v, want a Flows error", err)
	}
	if err := (Config{Switch: "ovs", Scenario: P2P, Flows: pkt.MaxFlows}).Validate(); err != nil {
		t.Errorf("Flows = pkt.MaxFlows rejected: %v", err)
	}

	skewNoFlows := Config{Switch: "ovs", Scenario: P2P, ZipfSkew: 1.1}
	if err := skewNoFlows.Validate(); err == nil {
		t.Error("ZipfSkew without Flows > 1 validated clean")
	}

	fixed := Config{Switch: "vale", Scenario: P2P, RuleUpdateRate: 1000}
	if err := fixed.Validate(); !errors.Is(err, ErrNoRuntimeRules) {
		t.Errorf("vale churn validation = %v, want ErrNoRuntimeRules", err)
	}
	if _, err := Run(fixed); !errors.Is(err, ErrNoRuntimeRules) {
		t.Errorf("vale churn run = %v, want ErrNoRuntimeRules", err)
	}

	// A custom topology can only take rule churn if it declares who
	// edits the rules.
	g := &topo.Graph{
		Nodes: []topo.Node{
			{Name: "p0", Kind: topo.KindPhysPair},
			{Name: "p1", Kind: topo.KindPhysPair},
			{Name: "tx", Kind: topo.KindGenerator, At: "p0"},
			{Name: "rx", Kind: topo.KindSink, At: "p1"},
		},
		Edges: []topo.Edge{{Kind: topo.EdgeCross, A: "p0", B: "p1"}},
	}
	noCtl := Config{Switch: "ovs", Scenario: Custom, Topology: g, RuleUpdateRate: 1000}
	if err := noCtl.Validate(); err == nil {
		t.Error("custom churn topology without a controller validated clean")
	}
	g.Nodes = append(g.Nodes, topo.Node{Name: "ctl", Kind: topo.KindController})
	withCtl := Config{Switch: "ovs", Scenario: Custom, Topology: g, RuleUpdateRate: 1000}
	if err := withCtl.Validate(); err != nil {
		t.Errorf("custom churn topology with a controller rejected: %v", err)
	}
}

// TestChurnFreeCacheKeysUnchanged: a config without churn knobs
// canonicalizes to JSON that never mentions them, so campaign cache keys
// of every pre-churn result are untouched by this feature.
func TestChurnFreeCacheKeysUnchanged(t *testing.T) {
	cfg := Config{Switch: "ovs", Scenario: P2P, FrameLen: 64}.Canonical()
	blob, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"ZipfSkew", "RuleUpdateRate"} {
		if strings.Contains(string(blob), field) {
			t.Errorf("churn-free canonical config leaks %s into the cache key: %s", field, blob)
		}
	}
}
