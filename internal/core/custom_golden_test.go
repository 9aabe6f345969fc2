package core

import (
	"os"
	"testing"

	"repro/internal/topo"
	"repro/internal/units"
)

// customGoldens pins full Result JSON digests for the Custom scenario on
// the shipped asymmetric service chain (examples/customtopo/chain3.json):
// the only topology with no return NIC, VNFs whose two directions are
// steered differently, and a guest monitor as the sole endpoint. It runs
// on a vhost-user switch, on VALE (ptnet ports, guest VALE VNFs) and on
// OvS. Re-pin only with an argued equivalence (see DESIGN.md §3.3).
// TestPinnedGoldens runs the table.
func customGoldens(t *testing.T) []goldenCell {
	t.Helper()
	data, err := os.ReadFile("../../examples/customtopo/chain3.json")
	if err != nil {
		t.Fatal(err)
	}
	g, err := topo.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	cell := func(sw string) Config {
		return Config{Switch: sw, Scenario: Custom, Topology: g, FrameLen: 64, ProbeEvery: 20 * units.Microsecond}
	}
	return []goldenCell{
		{cell("vpp"), "0e7e060f56d691c7053d9e21d2d729f7"},
		{cell("vale"), "3fd4a443d03a79721bcbbe2112cacb4e"},
		{cell("ovs"), "44c4eb897e9f4f523b8665ad4f2b84e7"},
	}
}
