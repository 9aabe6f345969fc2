package core

import (
	"errors"
	"fmt"

	"repro/internal/topo"
)

// Graph returns the declarative topology graph cfg describes: the
// paper's four scenarios (Fig. 2) are pure functions from Config to
// topo.Graph, and the Custom scenario passes the user's graph through.
// The graph is switch-independent; how its guest interfaces and VNFs
// materialize (vhost-user vs. ptnet, l2fwd vs. guest VALE) is decided by
// the testbed when it executes the graph's Plan.
func (cfg Config) Graph() (*topo.Graph, error) {
	cfg = cfg.withDefaults()
	var g *topo.Graph
	switch cfg.Scenario {
	case P2P:
		g = p2pGraph(cfg)
	case P2V:
		g = p2vGraph(cfg)
	case V2V:
		if cfg.LatencyTopology {
			g = v2vLatencyGraph(cfg)
		} else {
			g = v2vGraph(cfg)
		}
	case Loopback:
		g = loopbackGraph(cfg)
	case Custom:
		if cfg.Topology == nil {
			return nil, errors.New("core: custom scenario without a Topology graph")
		}
		return cfg.Topology, nil
	default:
		return nil, fmt.Errorf("core: unknown scenario %v", cfg.Scenario)
	}
	// Mid-run rule churn adds the control-plane actor to any named
	// scenario; custom graphs declare their own controller node.
	if cfg.RuleUpdateRate > 0 {
		g.Nodes = append(g.Nodes, topo.Node{Name: "controller", Kind: topo.KindController})
	}
	return g, nil
}

// Node/edge shorthands for the scenario builders.
func physPair(name string) topo.Node { return topo.Node{Name: name, Kind: topo.KindPhysPair} }
func guestIf(name, vm string) topo.Node {
	return topo.Node{Name: name, Kind: topo.KindGuestIf, VM: vm}
}
func generator(name, at string) topo.Node {
	return topo.Node{Name: name, Kind: topo.KindGenerator, At: at, Probes: true}
}
func sink(name, at string) topo.Node { return topo.Node{Name: name, Kind: topo.KindSink, At: at} }
func monitor(name, at string) topo.Node {
	return topo.Node{Name: name, Kind: topo.KindMonitor, At: at}
}
func cross(a, b string) topo.Edge { return topo.Edge{Kind: topo.EdgeCross, A: a, B: b} }

// p2pGraph: gen0 —wire— SUT[0 ↔ 1] —wire— gen1.
func p2pGraph(cfg Config) *topo.Graph {
	g := &topo.Graph{
		Name:  "p2p",
		Nodes: []topo.Node{physPair("p0"), physPair("p1")},
		Edges: []topo.Edge{cross("p0", "p1")},
	}
	// Direction 0: node-1 port0 → SUT → node-1 port1.
	g.Nodes = append(g.Nodes, generator("moongen-tx0", "p0"), sink("moongen-rx1", "p1"))
	if cfg.Bidir {
		g.Nodes = append(g.Nodes, generator("moongen-tx1", "p1"), sink("moongen-rx0", "p0"))
	}
	return g
}

// p2vGraph: gen0 —wire— SUT[0 ↔ 1] —vif— VM(monitor / generator).
func p2vGraph(cfg Config) *topo.Graph {
	g := &topo.Graph{
		Name:  "p2v",
		Nodes: []topo.Node{physPair("p0"), guestIf("vm0-if0", "vm0")},
		Edges: []topo.Edge{cross("p0", "vm0-if0")},
	}
	if !cfg.Reversed {
		g.Nodes = append(g.Nodes, generator("moongen-tx0", "p0"), monitor("flowatcher-vm0", "vm0-if0"))
	}
	if cfg.Reversed || cfg.Bidir {
		g.Nodes = append(g.Nodes, generator("guestgen-vm0", "vm0-if0"), sink("moongen-rx0", "p0"))
	}
	return g
}

// v2vGraph (throughput topology): VM1(gen) —vif— SUT[0 ↔ 1] —vif—
// VM2(mon). The guest generators run probe-less: the throughput wiring
// has no return path, so the paper measures v2v latency with the
// dedicated LatencyTopology instead.
func v2vGraph(cfg Config) *topo.Graph {
	gen1 := generator("guestgen-vm1", "vm1-if0")
	gen1.Probes = false
	g := &topo.Graph{
		Name: "v2v",
		Nodes: []topo.Node{
			guestIf("vm1-if0", "vm1"), guestIf("vm2-if0", "vm2"),
			gen1, monitor("monitor-vm2", "vm2-if0"),
		},
		Edges: []topo.Edge{cross("vm1-if0", "vm2-if0")},
	}
	if cfg.Bidir {
		gen2 := generator("guestgen-vm2", "vm2-if0")
		gen2.Probes = false
		g.Nodes = append(g.Nodes, gen2, monitor("monitor-vm1", "vm1-if0"))
	}
	return g
}

// v2vLatencyGraph (§5.3): VM1 holds the MoonGen TX (if0) and RX (if1)
// threads with software timestamping; VM2 reflects with l2fwd. The SUT
// cross-connects (vm1.if0 ↔ vm2.if0) and (vm2.if1 ↔ vm1.if1). The
// reflector forwards one way only and stamps vm2.if1's port MAC as its
// Ethernet source (the interface it transmits from).
func v2vLatencyGraph(cfg Config) *topo.Graph {
	return &topo.Graph{
		Name: "v2v-latency",
		Nodes: []topo.Node{
			guestIf("vm1-if0", "vm1"), guestIf("vm2-if0", "vm2"),
			guestIf("vm2-if1", "vm2"), guestIf("vm1-if1", "vm1"),
			generator("moongen-vm1-tx", "vm1-if0"),
			{
				Name: "l2fwd-vm2", Kind: topo.KindVNF,
				A: "vm2-if0", B: "vm2-if1",
				App: "l2fwd", SrcMACIf: "vm2-if1", OneWay: true,
			},
			monitor("moongen-vm1-rx", "vm1-if1"),
		},
		Edges: []topo.Edge{cross("vm1-if0", "vm2-if0"), cross("vm2-if1", "vm1-if1")},
	}
}

// loopbackGraph: gen0 — SUT[phys0 ↔ vm1.if0], VM k l2fwd, [vmk.if1 ↔
// vm(k+1).if0] ..., [vmN.if1 ↔ phys1] — gen1. With the VALE SUT each
// cross-connect is its own VALE bridge (N+1 instances) and the VNFs are
// guest VALE instances over ptnet, as in the paper's appendix A.4 — the
// VNF nodes leave App empty so the testbed picks the switch's native
// chain VNF.
func loopbackGraph(cfg Config) *topo.Graph {
	n := cfg.Chain
	g := &topo.Graph{Name: "loopback"}
	g.Nodes = append(g.Nodes, physPair("p0"))
	g.Edges = append(g.Edges, cross("p0", "vm1-if0"))
	for k := 1; k <= n; k++ {
		vm := fmt.Sprintf("vm%d", k)
		g.Nodes = append(g.Nodes, guestIf(vm+"-if0", vm), guestIf(vm+"-if1", vm))
		if k < n {
			g.Edges = append(g.Edges, cross(vm+"-if1", fmt.Sprintf("vm%d-if0", k+1)))
		}
	}
	g.Nodes = append(g.Nodes, physPair("p1"))
	g.Edges = append(g.Edges, cross(fmt.Sprintf("vm%d-if1", n), "p1"))

	// The VNFs: forward egress after vmK.if1 is the peer of that
	// cross-connect; reverse egress after vmK.if0 likewise — both fall
	// out of the compiler's rewrite derivation.
	for k := 1; k <= n; k++ {
		vm := fmt.Sprintf("vm%d", k)
		g.Nodes = append(g.Nodes, topo.Node{
			Name: "vnf-" + vm, Kind: topo.KindVNF,
			A: vm + "-if0", B: vm + "-if1",
		})
	}

	// Traffic.
	g.Nodes = append(g.Nodes, generator("moongen-tx0", "p0"), sink("moongen-rx1", "p1"))
	if cfg.Bidir {
		g.Nodes = append(g.Nodes, generator("moongen-tx1", "p1"), sink("moongen-rx0", "p0"))
	}
	return g
}
