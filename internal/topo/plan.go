package topo

import (
	"fmt"
	"strings"
)

// PlanPort is one attached SUT port of a compiled plan.
type PlanPort struct {
	Index int      `json:"index"`
	Node  string   `json:"node"`
	Kind  NodeKind `json:"kind"`
	VM    string   `json:"vm,omitempty"`
}

// PlanCross is one installed cross-connect.
type PlanCross struct {
	A int `json:"a"`
	B int `json:"b"`
}

// NoPort marks an absent port reference in a PlanActor (e.g. a VNF
// direction with no destination-MAC rewrite).
const NoPort = -1

// PlanActor is one placed traffic endpoint, VNF or controller. Port
// references are SUT port indices; NoPort means absent or not applicable.
// VNF rewrite ports are the egress ports of the two forwarding
// directions, whose MACs the VNF writes as destination.
type PlanActor struct {
	Name   string   `json:"name"`
	Kind   NodeKind `json:"kind"`
	Guest  bool     `json:"guest,omitempty"` // generator: guest-side
	At     int      `json:"at"`              // generator/sink/monitor
	Egress int      `json:"egress"`          // generator steering
	Probes bool     `json:"probes,omitempty"`

	A         int    `json:"a"` // vnf ports
	B         int    `json:"b"`
	SrcMAC    int    `json:"src_mac"`    // vnf source-MAC port
	RewriteAB int    `json:"rewrite_ab"` // vnf per-direction rewrites
	RewriteBA int    `json:"rewrite_ba"`
	App       string `json:"app,omitempty"`
}

// Plan is a compiled graph: the steps that materialize it, in execution
// order. Ports are attached to the switch in node order (Index is the
// SUT port index the switch assigns), cross-connects are installed in
// edge order, and actors start in node order. The testbed executes a
// Plan step by step; swbench topo -validate, the DOT/JSON renderers and
// the wiring tests read one without building a testbed.
type Plan struct {
	Topology string      `json:"topology,omitempty"`
	Ports    []PlanPort  `json:"ports"`
	Crosses  []PlanCross `json:"cross_connects"`
	Actors   []PlanActor `json:"actors"`
}

// NewPlan validates g and compiles it into a Plan. It subsumes what the
// legacy per-scenario wiring functions each duplicated by hand: port
// attachment order, cross-connect installation, generator frame-spec
// steering (Egress = the injection port's cross-connect peer), and the
// chain MAC-rewrite computation (each VNF direction rewrites to the
// cross-connect peer of its egress interface).
func NewPlan(g *Graph) (*Plan, error) {
	r, err := g.resolve()
	if err != nil {
		return nil, err
	}
	nPorts := 0
	for i := range r.nodes {
		if attachable(r.nodes[i].Kind) {
			nPorts++
		}
	}
	p := &Plan{
		Topology: g.Name,
		Ports:    make([]PlanPort, 0, nPorts),
		Crosses:  make([]PlanCross, 0, len(r.crosses)),
		// Every validated node is either attachable or an endpoint.
		Actors: make([]PlanActor, 0, len(r.nodes)-nPorts),
	}

	// Pass 1: ports, in node order.
	ports := make(map[string]int, nPorts)
	for i := range r.nodes {
		n := &r.nodes[i]
		if !attachable(n.Kind) {
			continue
		}
		pp := PlanPort{Index: len(p.Ports), Node: n.Name, Kind: n.Kind}
		if n.Kind == KindGuestIf {
			pp.VM = vmOf(n)
		}
		ports[n.Name] = pp.Index
		p.Ports = append(p.Ports, pp)
	}

	// Pass 2: cross-connects, in edge order.
	for _, e := range r.crosses {
		p.Crosses = append(p.Crosses, PlanCross{A: ports[e.A], B: ports[e.B]})
	}
	// egress returns the port traffic leaving SUT port name is steered
	// to: its cross-connect peer, or NoPort if unconnected.
	egress := func(name string) int {
		if peer, ok := r.peer[name]; ok {
			return ports[peer]
		}
		return NoPort
	}

	// Pass 3: actors, in node order.
	for i := range r.nodes {
		n := &r.nodes[i]
		if !endpoint(n.Kind) {
			continue
		}
		a := PlanActor{
			Name: n.Name, Kind: n.Kind,
			At: NoPort, Egress: NoPort,
			A: NoPort, B: NoPort, SrcMAC: NoPort,
			RewriteAB: NoPort, RewriteBA: NoPort,
		}
		switch n.Kind {
		case KindGenerator:
			a.Guest = r.byName[n.At].Kind == KindGuestIf
			a.At, a.Egress, a.Probes = ports[n.At], egress(n.At), n.Probes
		case KindSink, KindMonitor:
			a.At = ports[n.At]
		case KindVNF:
			srcIf := n.SrcMACIf
			if srcIf == "" {
				srcIf = n.A
			}
			a.A, a.B, a.SrcMAC = ports[n.A], ports[n.B], ports[srcIf]
			a.RewriteAB, a.App = egress(n.B), n.App
			if !n.OneWay {
				a.RewriteBA = egress(n.A)
			}
		}
		p.Actors = append(p.Actors, a)
	}
	return p, nil
}

// DOT renders a validated graph as Graphviz DOT: SUT ports as boxes
// (guest ifs clustered per VM), endpoints as ellipses, cross-connects as
// bold edges, and each endpoint's attachment as a plain edge (to a phys
// pair) or a dashed one (to a guest if).
func DOT(g *Graph) (string, error) {
	r, err := g.resolve()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	name := g.Name
	if name == "" {
		name = "topology"
	}
	fmt.Fprintf(&sb, "graph %q {\n  rankdir=LR;\n  node [fontsize=10];\n", name)

	// Guest ifs grouped into VM clusters.
	vms := map[string][]*Node{}
	var vmOrder []string
	for i := range r.nodes {
		n := &r.nodes[i]
		if n.Kind != KindGuestIf {
			continue
		}
		vm := vmOf(n)
		if _, seen := vms[vm]; !seen {
			vmOrder = append(vmOrder, vm)
		}
		vms[vm] = append(vms[vm], n)
	}
	for i, vm := range vmOrder {
		fmt.Fprintf(&sb, "  subgraph cluster_vm%d {\n    label=%q;\n    style=rounded;\n", i, vm)
		for _, n := range vms[vm] {
			fmt.Fprintf(&sb, "    %q [shape=box];\n", n.Name)
		}
		fmt.Fprintf(&sb, "  }\n")
	}
	for i := range r.nodes {
		n := &r.nodes[i]
		switch n.Kind {
		case KindPhysPair:
			fmt.Fprintf(&sb, "  %q [shape=box, style=filled, fillcolor=lightgrey];\n", n.Name)
		case KindGenerator:
			fmt.Fprintf(&sb, "  %q [shape=ellipse, label=\"%s\\n(generator)\"];\n", n.Name, n.Name)
		case KindSink:
			fmt.Fprintf(&sb, "  %q [shape=ellipse, label=\"%s\\n(sink)\"];\n", n.Name, n.Name)
		case KindMonitor:
			fmt.Fprintf(&sb, "  %q [shape=ellipse, label=\"%s\\n(monitor)\"];\n", n.Name, n.Name)
		case KindVNF:
			fmt.Fprintf(&sb, "  %q [shape=component, label=\"%s\\n(vnf)\"];\n", n.Name, n.Name)
		case KindController:
			fmt.Fprintf(&sb, "  %q [shape=diamond, label=\"%s\\n(controller)\"];\n", n.Name, n.Name)
		}
	}
	for _, e := range r.crosses {
		fmt.Fprintf(&sb, "  %q -- %q [style=bold, label=\"x-conn\"];\n", e.A, e.B)
	}
	for i := range r.nodes {
		n := &r.nodes[i]
		switch n.Kind {
		case KindGenerator, KindSink, KindMonitor:
			style := "dashed" // guest-side
			if r.byName[n.At].Kind == KindPhysPair {
				style = "solid" // NIC cable
			}
			fmt.Fprintf(&sb, "  %q -- %q [style=%s];\n", n.Name, n.At, style)
		case KindVNF:
			fmt.Fprintf(&sb, "  %q -- %q [style=dashed, label=\"a\"];\n", n.Name, n.A)
			fmt.Fprintf(&sb, "  %q -- %q [style=dashed, label=\"b\"];\n", n.Name, n.B)
		}
	}
	sb.WriteString("}\n")
	return sb.String(), nil
}
