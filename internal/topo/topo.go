// Package topo defines a declarative topology graph IR for the testbed.
//
// A Graph is pure data: typed nodes (physical port pairs, guest
// interfaces, VNFs, generators, sinks, monitors, a controller) and
// cross-connect edges between SUT ports. Endpoints name their attachment
// in their own fields (a generator's, sink's or monitor's At, a VNF's A
// and B). The paper's four scenarios compile into this IR, and arbitrary
// new topologies — longer chains, fan-out, asymmetric paths — can be
// expressed in it directly, either programmatically or as a JSON file.
//
// NewPlan compiles a validated graph, in declaration order, into a Plan:
// the materialization steps that internal/core executes to build a
// runnable testbed, and that rendering and tests inspect without one.
// Declaration order is semantic: ports are attached to the switch in node
// order, cross-connects are installed in edge order, and traffic
// endpoints start in node order — which pins the simulation's
// deterministic event interleaving.
package topo

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// NodeKind types a topology node.
type NodeKind string

// The node kinds.
const (
	// KindPhysPair is a physical SUT NIC port wired back-to-back to a
	// traffic-generator NIC port (one end of the paper's Fig. 3 cabling).
	KindPhysPair NodeKind = "physpair"
	// KindGuestIf is one guest-side network interface of a VM
	// (vhost-user/virtio or ptnet, depending on the switch under test).
	KindGuestIf NodeKind = "guestif"
	// KindVNF is a forwarding network function occupying a VM and
	// bridging two guest interfaces (DPDK l2fwd or a guest VALE).
	KindVNF NodeKind = "vnf"
	// KindGenerator is a traffic source: MoonGen TX on a phys pair's
	// generator NIC, or MoonGen/pkt-gen TX inside a VM on a guest if.
	KindGenerator NodeKind = "generator"
	// KindSink is a NIC-side counting endpoint (MoonGen RX) on a phys
	// pair's generator NIC.
	KindSink NodeKind = "sink"
	// KindMonitor is a guest-side counting endpoint (FloWatcher-DPDK /
	// pkt-gen RX) on a guest interface.
	KindMonitor NodeKind = "monitor"
	// KindController is the control-plane actor: it programs rules into
	// the SUT switch mid-run (install/revoke churn) over the management
	// channel, so it owns no SUT port and attaches to nothing. At most
	// one per graph.
	KindController NodeKind = "controller"
)

// EdgeKind types a topology edge.
type EdgeKind string

// The edge kinds.
const (
	// EdgeCross is a switch cross-connect: bidirectional L2 forwarding
	// installed between the SUT ports of two attachable nodes.
	EdgeCross EdgeKind = "cross-connect"
)

// Node is one typed topology node. Only the fields of its kind apply:
//
//   - physpair: Name.
//   - guestif: Name, VM (defaults to the node name — a single-interface
//     VM).
//   - vnf: Name, A, B (guest-if node names), and optionally App
//     ("l2fwd" forces DPDK l2fwd even on ptnet switches; "" picks the
//     switch's native VNF), SrcMACIf (the guest if whose SUT port MAC
//     the VNF writes as Ethernet source; defaults to A), and OneWay
//     (suppress the B→A destination-MAC rewrite — reflector VNFs).
//   - generator: Name, At (a physpair or guestif), Probes.
//   - sink: Name, At (a physpair).
//   - monitor: Name, At (a guestif).
type Node struct {
	Name string   `json:"name"`
	Kind NodeKind `json:"kind"`

	// VM identifies the virtual machine owning a guest interface; guest
	// interfaces sharing a VM share guest packet memory.
	VM string `json:"vm,omitempty"`

	// A and B are the guest interfaces a VNF bridges (its first and
	// second port, in that order).
	A string `json:"a,omitempty"`
	B string `json:"b,omitempty"`
	// App selects the VNF application: "" (the switch's native chain
	// VNF: guest VALE over ptnet, DPDK l2fwd otherwise), "l2fwd", or
	// "vale".
	App string `json:"app,omitempty"`
	// SrcMACIf names the guest interface (A or B) whose SUT-port MAC
	// the VNF writes as the Ethernet source of forwarded frames.
	// Defaults to A.
	SrcMACIf string `json:"src_mac_if,omitempty"`
	// OneWay suppresses the B→A destination-MAC rewrite (the v2v
	// latency reflector forwards only A→B).
	OneWay bool `json:"one_way,omitempty"`

	// At is the attachment point of a generator, sink, or monitor.
	At string `json:"at,omitempty"`
	// Probes makes a generator emit latency probes when the run
	// requests them.
	Probes bool `json:"probes,omitempty"`
}

// Edge is one typed topology edge between two named nodes.
type Edge struct {
	Kind EdgeKind `json:"kind"`
	A    string   `json:"a"`
	B    string   `json:"b"`
}

// Graph is a declarative topology: pure data, serializable as JSON.
// Node and edge order is semantic (see the package comment).
type Graph struct {
	// Name labels the topology (reports, DOT output).
	Name  string `json:"name,omitempty"`
	Nodes []Node `json:"nodes"`
	Edges []Edge `json:"edges"`
}

// Parse decodes one JSON topology graph and validates it. A field the
// graph does not define is an error, not silently dropped, and so is
// anything after the graph's closing brace.
func Parse(data []byte) (*Graph, error) {
	var g Graph
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		return nil, fmt.Errorf("topo: parsing graph: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, errors.New("topo: parsing graph: data after the graph")
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &g, nil
}

// HasController reports whether the graph declares a control-plane node.
func (g *Graph) HasController() bool {
	for i := range g.Nodes {
		if g.Nodes[i].Kind == KindController {
			return true
		}
	}
	return false
}

// vmOf returns the VM identity of a guest interface node: the declared
// VM, defaulting to the node's own name (a single-interface VM).
func vmOf(n *Node) string {
	if n.VM != "" {
		return n.VM
	}
	return n.Name
}

// attachable reports whether a node owns a SUT switch port.
func attachable(k NodeKind) bool { return k == KindPhysPair || k == KindGuestIf }

// endpoint reports whether a node is a traffic endpoint created after
// wiring (generator, sink, monitor, VNF, or controller).
func endpoint(k NodeKind) bool {
	switch k {
	case KindGenerator, KindSink, KindMonitor, KindVNF, KindController:
		return true
	}
	return false
}
