package topo

import (
	"errors"
	"fmt"
)

// resolved is a validated view of a graph: nodes indexed by name,
// cross-connect peers indexed.
type resolved struct {
	g *Graph
	// nodes is g.Nodes, in declaration order.
	nodes  []Node
	byName map[string]*Node
	// crosses holds the cross-connect edges in declaration order.
	crosses []Edge
	// peer maps an attachable node to its cross-connect peer.
	peer map[string]string
}

// resolve indexes and validates g, reporting every violation found
// (joined), not just the first.
func (g *Graph) resolve() (*resolved, error) {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("topo: "+format, args...))
	}

	r := &resolved{
		g:      g,
		nodes:  g.Nodes,
		byName: make(map[string]*Node, len(g.Nodes)),
		peer:   make(map[string]string),
	}
	if len(g.Nodes) == 0 {
		fail("graph has no nodes")
	}

	// Node names and kinds.
	for i := range r.nodes {
		n := &r.nodes[i]
		if n.Name == "" {
			fail("node %d has no name", i)
			continue
		}
		if _, dup := r.byName[n.Name]; dup {
			fail("duplicate node name %q", n.Name)
			continue
		}
		r.byName[n.Name] = n
		switch n.Kind {
		case KindPhysPair, KindGuestIf, KindVNF, KindGenerator, KindSink, KindMonitor, KindController:
		default:
			fail("node %q has unknown kind %q", n.Name, n.Kind)
		}
	}

	// Edges: index cross-connects. A dangling edge — one referencing a
	// node that does not exist — is an error.
	for i, e := range g.Edges {
		a, aok := r.byName[e.A]
		b, bok := r.byName[e.B]
		if !aok || !bok {
			fail("edge %d (%s %q—%q) references a missing node", i, e.Kind, e.A, e.B)
			continue
		}
		switch e.Kind {
		case EdgeCross:
			if !attachable(a.Kind) || !attachable(b.Kind) {
				fail("cross-connect %q—%q must join phys pairs or guest ifs", e.A, e.B)
				continue
			}
			if e.A == e.B {
				fail("cross-connect %q—%q joins a port to itself", e.A, e.B)
				continue
			}
			for _, name := range []string{e.A, e.B} {
				if p, dup := r.peer[name]; dup {
					fail("port %q cross-connected twice (to %q and %q)", name, p, map[bool]string{true: e.B, false: e.A}[name == e.A])
				}
			}
			r.peer[e.A], r.peer[e.B] = e.B, e.A
			r.crosses = append(r.crosses, e)
		default:
			fail("edge %d has unknown kind %q", i, e.Kind)
		}
	}

	// Per-kind field checks.
	want := func(name, field string, kinds ...NodeKind) *Node {
		if field == "" {
			fail("node %q needs an attachment (%v)", name, kinds)
			return nil
		}
		t, ok := r.byName[field]
		if !ok {
			fail("node %q attaches to missing node %q", name, field)
			return nil
		}
		for _, k := range kinds {
			if t.Kind == k {
				return t
			}
		}
		fail("node %q attaches to %q (%s), want %v", name, field, t.Kind, kinds)
		return nil
	}
	generators, measured, controllers := 0, 0, 0
	// A guest if's receive queue has one reader, as a virtio or netmap
	// queue has one polling process: the guest core that wakes on it.
	reader := map[string]string{}
	reads := func(ifc, name string) {
		if prev, dup := reader[ifc]; dup && ifc != "" {
			fail("guest if %q is read by both %q and %q", ifc, prev, name)
		}
		reader[ifc] = name
	}
	for i := range r.nodes {
		n := &r.nodes[i]
		switch n.Kind {
		case KindGenerator:
			generators++
			if at := want(n.Name, n.At, KindPhysPair, KindGuestIf); at != nil {
				if _, ok := r.peer[at.Name]; !ok {
					fail("generator %q injects at %q, which has no cross-connect to steer its traffic", n.Name, at.Name)
				}
			}
		case KindSink:
			measured++
			want(n.Name, n.At, KindPhysPair)
		case KindMonitor:
			measured++
			want(n.Name, n.At, KindGuestIf)
			reads(n.At, n.Name)
		case KindVNF:
			want(n.Name, n.A, KindGuestIf)
			want(n.Name, n.B, KindGuestIf)
			reads(n.A, n.Name)
			if n.A != "" && n.A == n.B {
				fail("vnf %q bridges %q to itself", n.Name, n.A)
			} else {
				reads(n.B, n.Name)
			}
			if n.SrcMACIf != "" && n.SrcMACIf != n.A && n.SrcMACIf != n.B {
				fail("vnf %q src_mac_if %q is neither of its ports", n.Name, n.SrcMACIf)
			}
			switch n.App {
			case "", "l2fwd", "vale":
			default:
				fail("vnf %q has unknown app %q", n.Name, n.App)
			}
		case KindController:
			controllers++
			if controllers == 2 {
				fail("graph declares more than one controller")
			}
			if n.At != "" || n.A != "" || n.B != "" {
				fail("controller %q carries attachment fields; it speaks to the switch over the management channel, not a port", n.Name)
			}
		case KindPhysPair, KindGuestIf:
			if n.At != "" || n.A != "" || n.B != "" {
				fail("port node %q carries endpoint attachment fields", n.Name)
			}
		}
	}
	if len(errs) == 0 && generators == 0 {
		fail("graph has no traffic generator")
	}
	if len(errs) == 0 && measured == 0 {
		fail("graph has no measurement endpoint (sink or monitor)")
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return r, nil
}

// Validate checks the graph and reports every violation found, joined
// into one error: unknown kinds, duplicate or missing node names,
// dangling edges, missing or ill-typed attachments, twice-connected
// ports, guest ifs with two readers, steerless generators, and missing
// endpoints.
func (g *Graph) Validate() error {
	_, err := g.resolve()
	return err
}
