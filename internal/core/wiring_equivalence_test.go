package core

import (
	"reflect"
	"testing"

	"repro/internal/topo"
	"repro/internal/units"
)

// The five Plan tests in this file pin the compiled wiring of the paper's
// scenarios — p2p, p2v (forward, reversed, bidirectional), v2v, the v2v
// latency topology, and a loopback chain — without running anything:
// the SUT port attach order, the cross-connect pairs, each endpoint's
// port, each generator's steering and probes, and each VNF's ports,
// source MAC and per-direction rewrite ports. The expectations are those
// of the hand-written per-scenario builders (wireP2P, wireLoopback, ...)
// that the graph compiler replaced; the comments name them. The builders
// themselves are gone. legacyEngineGoldens, at the end of the file, keeps
// the full-Result digests captured on them; TestPinnedGoldens runs it.

// plan compiles cfg's scenario graph into a recording plan.
func planFor(t *testing.T, cfg Config) *topo.Plan {
	t.Helper()
	g, err := cfg.Graph()
	if err != nil {
		t.Fatalf("Graph(%+v): %v", cfg, err)
	}
	p, err := topo.NewPlan(g)
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	return p
}

func wantPorts(t *testing.T, p *topo.Plan, names ...string) {
	t.Helper()
	var got []string
	for i, pp := range p.Ports {
		if pp.Index != i {
			t.Fatalf("port %d self-reports index %d", i, pp.Index)
		}
		got = append(got, pp.Node)
	}
	if !reflect.DeepEqual(got, names) {
		t.Fatalf("attach order = %v, want %v", got, names)
	}
}

func wantCrosses(t *testing.T, p *topo.Plan, pairs ...[2]int) {
	t.Helper()
	var got [][2]int
	for _, c := range p.Crosses {
		got = append(got, [2]int{c.A, c.B})
	}
	if !reflect.DeepEqual(got, pairs) {
		t.Fatalf("cross-connects = %v, want %v", got, pairs)
	}
}

func TestP2PWiringMatchesLegacy(t *testing.T) {
	p := planFor(t, Config{Switch: "vpp", Scenario: P2P, Bidir: true})
	wantPorts(t, p, "p0", "p1")
	wantCrosses(t, p, [2]int{0, 1})
	// Legacy wireP2P: tx0(p0→p1), rx1, then the reverse pair.
	want := []struct {
		name       string
		kind       topo.NodeKind
		guest      bool
		at, egress int
	}{
		{"moongen-tx0", topo.KindGenerator, false, 0, 1},
		{"moongen-rx1", topo.KindSink, false, 1, topo.NoPort},
		{"moongen-tx1", topo.KindGenerator, false, 1, 0},
		{"moongen-rx0", topo.KindSink, false, 0, topo.NoPort},
	}
	if len(p.Actors) != len(want) {
		t.Fatalf("actors = %+v", p.Actors)
	}
	for i, w := range want {
		a := p.Actors[i]
		if a.Name != w.name || a.Kind != w.kind || a.Guest != w.guest || a.At != w.at {
			t.Errorf("actor %d = %+v, want %+v", i, a, w)
		}
		if w.kind == topo.KindGenerator && (a.Egress != w.egress || !a.Probes) {
			t.Errorf("generator %s: egress %d probes %v, want egress %d probes", a.Name, a.Egress, a.Probes, w.egress)
		}
	}
}

func TestP2VWiringMatchesLegacy(t *testing.T) {
	// Forward: NIC generator p0→vm0, guest monitor.
	p := planFor(t, Config{Switch: "vpp", Scenario: P2V})
	wantPorts(t, p, "p0", "vm0-if0")
	wantCrosses(t, p, [2]int{0, 1})
	if p.Actors[0].Name != "moongen-tx0" || p.Actors[0].At != 0 || p.Actors[0].Egress != 1 || p.Actors[0].Guest {
		t.Fatalf("forward gen = %+v", p.Actors[0])
	}
	if p.Actors[1].Name != "flowatcher-vm0" || p.Actors[1].Kind != topo.KindMonitor || p.Actors[1].At != 1 {
		t.Fatalf("monitor = %+v", p.Actors[1])
	}

	// Reversed: guest generator vm0→p0, NIC sink. Legacy wireP2V skips
	// the forward pair entirely.
	p = planFor(t, Config{Switch: "vpp", Scenario: P2V, Reversed: true})
	if len(p.Actors) != 2 {
		t.Fatalf("reversed actors = %+v", p.Actors)
	}
	if a := p.Actors[0]; a.Name != "guestgen-vm0" || !a.Guest || a.At != 1 || a.Egress != 0 || !a.Probes {
		t.Fatalf("reversed gen = %+v", a)
	}
	if a := p.Actors[1]; a.Name != "moongen-rx0" || a.Kind != topo.KindSink || a.At != 0 {
		t.Fatalf("reversed sink = %+v", a)
	}

	// Bidir: forward pair then reverse pair, four actors.
	p = planFor(t, Config{Switch: "vpp", Scenario: P2V, Bidir: true})
	var names []string
	for _, a := range p.Actors {
		names = append(names, a.Name)
	}
	if !reflect.DeepEqual(names, []string{"moongen-tx0", "flowatcher-vm0", "guestgen-vm0", "moongen-rx0"}) {
		t.Fatalf("bidir order = %v", names)
	}
}

func TestV2VWiringMatchesLegacy(t *testing.T) {
	p := planFor(t, Config{Switch: "vpp", Scenario: V2V, Bidir: true})
	wantPorts(t, p, "vm1-if0", "vm2-if0")
	wantCrosses(t, p, [2]int{0, 1})
	// Legacy wireV2V: guest generators run without latency probes.
	want := []string{"guestgen-vm1", "monitor-vm2", "guestgen-vm2", "monitor-vm1"}
	for i, a := range p.Actors {
		if a.Name != want[i] {
			t.Fatalf("actor order = %+v", p.Actors)
		}
		if a.Kind == topo.KindGenerator && (a.Probes || !a.Guest) {
			t.Fatalf("v2v generator %s: guest=%v probes=%v, want guest probe-less", a.Name, a.Guest, a.Probes)
		}
	}
}

func TestV2VLatencyWiringMatchesLegacy(t *testing.T) {
	p := planFor(t, Config{Switch: "vpp", Scenario: V2V, LatencyTopology: true})
	// Legacy wireV2VLatency attach order: vm1.if0, vm2.if0, vm2.if1,
	// vm1.if1; cross-connects (0,1) and (2,3).
	wantPorts(t, p, "vm1-if0", "vm2-if0", "vm2-if1", "vm1-if1")
	wantCrosses(t, p, [2]int{0, 1}, [2]int{2, 3})
	if len(p.Actors) != 3 {
		t.Fatalf("actors = %+v", p.Actors)
	}
	if a := p.Actors[0]; a.Name != "moongen-vm1-tx" || !a.Guest || a.At != 0 || a.Egress != 1 || !a.Probes {
		t.Fatalf("tx = %+v", a)
	}
	// The reflector: forced l2fwd (even on ptnet switches), source MAC
	// from vm2.if1's port (2), forward rewrite to vm1.if1's port (3),
	// no reverse rewrite — exactly wireV2VLatency's hand-built L2Fwd.
	if a := p.Actors[1]; a.Name != "l2fwd-vm2" || a.Kind != topo.KindVNF ||
		a.A != 1 || a.B != 2 || a.SrcMAC != 2 ||
		a.RewriteAB != 3 || a.RewriteBA != topo.NoPort || a.App != "l2fwd" {
		t.Fatalf("reflector = %+v", a)
	}
	if a := p.Actors[2]; a.Name != "moongen-vm1-rx" || a.Kind != topo.KindMonitor || a.At != 3 {
		t.Fatalf("rx = %+v", a)
	}
}

func TestLoopbackWiringMatchesLegacy(t *testing.T) {
	p := planFor(t, Config{Switch: "vpp", Scenario: Loopback, Chain: 3, Bidir: true})
	wantPorts(t, p, "p0", "vm1-if0", "vm1-if1", "vm2-if0", "vm2-if1", "vm3-if0", "vm3-if1", "p1")
	wantCrosses(t, p, [2]int{0, 1}, [2]int{2, 3}, [2]int{4, 5}, [2]int{6, 7})

	// Legacy wireLoopback: the VNF cores first, then the generators.
	// Each VNF rewrites forward to the peer of its if1 cross-connect and
	// reverse to the peer of its if0 cross-connect, sourcing its if0
	// port MAC.
	type vnf struct{ a, b, src, ab, ba int }
	wantVNFs := []vnf{
		{1, 2, 1, 3, 0}, // vm1: fwd → vm2.if0, rev → p0
		{3, 4, 3, 5, 2}, // vm2: fwd → vm3.if0, rev → vm1.if1
		{5, 6, 5, 7, 4}, // vm3: fwd → p1,      rev → vm2.if1
	}
	for i, w := range wantVNFs {
		a := p.Actors[i]
		if a.Kind != topo.KindVNF || a.A != w.a || a.B != w.b || a.SrcMAC != w.src ||
			a.RewriteAB != w.ab || a.RewriteBA != w.ba || a.App != "" {
			t.Errorf("vnf %d = %+v, want %+v", i, a, w)
		}
	}
	rest := p.Actors[3:]
	if rest[0].Name != "moongen-tx0" || rest[0].At != 0 || rest[0].Egress != 1 {
		t.Errorf("tx0 = %+v", rest[0])
	}
	if rest[1].Name != "moongen-rx1" || rest[1].At != 7 {
		t.Errorf("rx1 = %+v", rest[1])
	}
	// Reverse direction steers into the chain tail (vm3.if1), like
	// legacy frameSpec(p1, vms[n-1].pIf1).
	if rest[2].Name != "moongen-tx1" || rest[2].At != 7 || rest[2].Egress != 6 {
		t.Errorf("tx1 = %+v", rest[2])
	}
	if rest[3].Name != "moongen-rx0" || rest[3].At != 0 {
		t.Errorf("rx0 = %+v", rest[3])
	}
}

// legacyEngineGoldens pins full Result JSON digests for
// a grid covering every scenario variant (uni/bidir, reversed, latency
// topology, containers, ptnet chains, multi-core). The goldens were
// captured on the legacy wire*-function engine immediately before the
// graph-compiler refactor: matching them proves the compiler is
// behavior-preserving bit-for-bit, not just structurally.
// TestPinnedGoldens runs the table (skipped under -short).
func legacyEngineGoldens() []goldenCell {
	return []goldenCell{
		{Config{Switch: "vpp", Scenario: P2P}, "fc71da34ccde934cd9be7b23096ad4f5"},
		{Config{Switch: "vpp", Scenario: P2P, Bidir: true, ProbeEvery: 40 * units.Microsecond}, "6ce9d14f855c6120b4b13863d62080e3"},
		{Config{Switch: "bess", Scenario: P2V}, "a04e1922b3b62dea8921add2caab4012"},
		{Config{Switch: "vpp", Scenario: P2V, Reversed: true}, "05d0678245cf1735cb1d9e10643a1e82"},
		{Config{Switch: "ovs", Scenario: P2V, Bidir: true, ProbeEvery: 40 * units.Microsecond}, "8912f5a00bc4ab5d70677cbd28f56e03"},
		{Config{Switch: "snabb", Scenario: V2V}, "801be70b9d1b4a6059576de0464d89d7"},
		{Config{Switch: "vale", Scenario: V2V, Bidir: true}, "6435effb82837b1eaf68bfa73672085c"},
		{Config{Switch: "vpp", Scenario: V2V, LatencyTopology: true, Rate: units.Gbps, ProbeEvery: 20 * units.Microsecond}, "57050451eebd1ea9d1980e92fbe01124"},
		{Config{Switch: "vale", Scenario: V2V, LatencyTopology: true, Rate: units.Gbps, ProbeEvery: 20 * units.Microsecond}, "2cefaf78051dd26f475193bf8b0f4c2a"},
		{Config{Switch: "ovs", Scenario: Loopback, Chain: 1}, "2474e0f6ad1caa9fed48960188f94c54"},
		{Config{Switch: "t4p4s", Scenario: Loopback, Chain: 3, Bidir: true, ProbeEvery: 40 * units.Microsecond}, "5336e6455ebefc18fd74e757bda13155"},
		{Config{Switch: "vale", Scenario: Loopback, Chain: 2}, "d4e10b4b84738c3f85352573647de49f"},
		{Config{Switch: "fastclick", Scenario: Loopback, Chain: 2, Containers: true}, "42d6b06f89028ff812dcf1e8bede9268"},
		// Re-pinned when multi-core dispatch moved from shared-state port
		// sharding to per-core switch instances (internal/multicore).
		{Config{Switch: "vpp", Scenario: P2P, SUTCores: 2, Bidir: true}, "9606ad8900076a88214c1d88e8d84f19"},
	}
}
