package topo

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// chainGraph builds a p2p-terminated n-VNF chain programmatically (the
// loopback shape, but authored through the IR like any custom topology).
func chainGraph(n int) *Graph {
	g := &Graph{Name: fmt.Sprintf("chain-%d", n)}
	g.Nodes = append(g.Nodes, Node{Name: "p0", Kind: KindPhysPair})
	g.Edges = append(g.Edges, Edge{Kind: EdgeCross, A: "p0", B: "vm1-if0"})
	for k := 1; k <= n; k++ {
		vm := fmt.Sprintf("vm%d", k)
		g.Nodes = append(g.Nodes,
			Node{Name: vm + "-if0", Kind: KindGuestIf, VM: vm},
			Node{Name: vm + "-if1", Kind: KindGuestIf, VM: vm})
		if k < n {
			g.Edges = append(g.Edges, Edge{Kind: EdgeCross, A: vm + "-if1", B: fmt.Sprintf("vm%d-if0", k+1)})
		}
	}
	g.Nodes = append(g.Nodes, Node{Name: "p1", Kind: KindPhysPair})
	g.Edges = append(g.Edges, Edge{Kind: EdgeCross, A: fmt.Sprintf("vm%d-if1", n), B: "p1"})
	for k := 1; k <= n; k++ {
		vm := fmt.Sprintf("vm%d", k)
		g.Nodes = append(g.Nodes, Node{Name: "vnf-" + vm, Kind: KindVNF, A: vm + "-if0", B: vm + "-if1"})
	}
	g.Nodes = append(g.Nodes,
		Node{Name: "tx0", Kind: KindGenerator, At: "p0", Probes: true},
		Node{Name: "rx1", Kind: KindSink, At: "p1"})
	return g
}

func TestValidateAcceptsChain(t *testing.T) {
	if err := chainGraph(3).Validate(); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
}

func TestValidateReportsAllViolationsJoined(t *testing.T) {
	g := &Graph{
		Nodes: []Node{
			{Name: "p0", Kind: KindPhysPair},
			{Name: "p0", Kind: KindPhysPair},           // duplicate name
			{Name: "gen", Kind: KindGenerator},         // no attachment
			{Name: "mon", Kind: KindMonitor, At: "p0"}, // monitor on a phys pair
		},
		Edges: []Edge{
			{Kind: EdgeCross, A: "p0", B: "ghost"}, // dangling edge
		},
	}
	err := g.Validate()
	if err == nil {
		t.Fatal("broken graph accepted")
	}
	msg := err.Error()
	for _, want := range []string{"duplicate node name", "missing node", "needs an attachment", "want"} {
		if !strings.Contains(msg, want) {
			t.Errorf("joined error lacks %q:\n%s", want, msg)
		}
	}
	// All four violations surface at once, not just the first.
	if got := len(strings.Split(msg, "\n")); got < 4 {
		t.Errorf("only %d violations reported:\n%s", got, msg)
	}
}

// rejectCases are graphs Validate must refuse, one violation each.
func rejectCases() map[string]*Graph {
	pp := Node{Name: "p0", Kind: KindPhysPair}
	pp2 := Node{Name: "p1", Kind: KindPhysPair}
	gi := Node{Name: "g0", Kind: KindGuestIf}
	gen := Node{Name: "tx", Kind: KindGenerator, At: "p0"}
	snk := Node{Name: "rx", Kind: KindSink, At: "p1"}
	x := Edge{Kind: EdgeCross, A: "p0", B: "p1"}
	return map[string]*Graph{
		"empty":              {},
		"unknown kind":       {Nodes: []Node{pp, pp2, gen, snk, {Name: "w", Kind: "warp"}}, Edges: []Edge{x}},
		"self cross-connect": {Nodes: []Node{pp, gen, snk}, Edges: []Edge{{Kind: EdgeCross, A: "p0", B: "p0"}}},
		"port crossed twice": {Nodes: []Node{pp, pp2, gi, gen, snk},
			Edges: []Edge{x, {Kind: EdgeCross, A: "p0", B: "g0"}}},
		"steerless generator": {Nodes: []Node{pp, pp2, gen, snk}},
		"no generator":        {Nodes: []Node{pp, pp2, snk}, Edges: []Edge{x}},
		"no endpoint":         {Nodes: []Node{pp, pp2, gen}, Edges: []Edge{x}},
		"vnf self bridge": {Nodes: []Node{pp, pp2, gi, gen, snk,
			{Name: "v", Kind: KindVNF, A: "g0", B: "g0"}}, Edges: []Edge{x}},
		"vnf bad src_mac_if": {Nodes: []Node{pp, pp2, gi, gen, snk,
			{Name: "g1", Kind: KindGuestIf}, {Name: "v", Kind: KindVNF, A: "g0", B: "g1", SrcMACIf: "p0"}}, Edges: []Edge{x}},
		"sink on guest if": {Nodes: []Node{pp, pp2, gi, gen, {Name: "rx", Kind: KindSink, At: "g0"}}, Edges: []Edge{x}},
		"wire edge is an unknown kind": {Nodes: []Node{pp, pp2, gen, snk},
			Edges: []Edge{x, {Kind: "wire", A: "tx", B: "p0"}}},
		"guest if read twice": {Nodes: []Node{pp, pp2, gi, gen, snk,
			{Name: "g1", Kind: KindGuestIf}, {Name: "v", Kind: KindVNF, A: "g0", B: "g1"},
			{Name: "mon", Kind: KindMonitor, At: "g0"}}, Edges: []Edge{x}},
	}
}

func TestValidateRejects(t *testing.T) {
	for name, g := range rejectCases() {
		if err := g.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := chainGraph(2)
	blob, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	blob2, _ := json.Marshal(back)
	if string(blob) != string(blob2) {
		t.Fatalf("round trip changed the graph:\n%s\n%s", blob, blob2)
	}
}

// chain3Path is a shipped example topology, valid as it stands.
const chain3Path = "../../examples/customtopo/chain3.json"

// parseRejects returns inputs Parse must refuse: JSON that is not exactly
// one graph, and the chain3 example carrying one field or edge kind the
// IR does not define.
func parseRejects(tb testing.TB) map[string][]byte {
	tb.Helper()
	blob, err := os.ReadFile(chain3Path)
	if err != nil {
		tb.Fatal(err)
	}
	chain3 := string(blob)
	splice := func(old, new string) []byte {
		out := strings.Replace(chain3, old, new, 1)
		if out == chain3 {
			tb.Fatalf("%s lacks %q", chain3Path, old)
		}
		return []byte(out)
	}
	return map[string][]byte{
		"invalid graph":    []byte(`{"nodes": [{"name": "x", "kind": "physpair"}]}`),
		"malformed JSON":   []byte(`{"nodes": [`),
		"graph sut_cores":  splice(`{`, `{"sut_cores": 4,`),
		"phys pair queues": splice(`{"name": "p0", "kind": "physpair"}`, `{"name": "p0", "kind": "physpair", "queues": 2}`),
		"wire edge":        splice(`"edges": [`, `"edges": [{"kind": "wire", "a": "moongen-tx0", "b": "p0"},`),
		"trailing value":   []byte(chain3 + "{}"),
	}
}

func TestParseRejectsInvalid(t *testing.T) {
	blob, err := os.ReadFile(chain3Path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(blob); err != nil {
		t.Fatalf("%s rejected: %v", chain3Path, err)
	}
	for name, in := range parseRejects(t) {
		if _, err := Parse(in); err == nil {
			t.Errorf("%s: parsed", name)
		}
	}
}

func TestPlanChainRewrites(t *testing.T) {
	p, err := NewPlan(chainGraph(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Ports) != 6 || len(p.Crosses) != 3 || len(p.Actors) != 4 {
		t.Fatalf("plan shape: %d ports, %d crosses, %d actors", len(p.Ports), len(p.Crosses), len(p.Actors))
	}
	// vnf-vm1 forwards to vm2-if0 (port 3) and reverses to p0 (0);
	// vnf-vm2 forwards to p1 (5) and reverses to vm1-if1 (2).
	v1, v2 := p.Actors[0], p.Actors[1]
	if v1.RewriteAB != 3 || v1.RewriteBA != 0 || v1.SrcMAC != 1 {
		t.Errorf("vnf-vm1 = %+v", v1)
	}
	if v2.RewriteAB != 5 || v2.RewriteBA != 2 || v2.SrcMAC != 3 {
		t.Errorf("vnf-vm2 = %+v", v2)
	}
}

// fanOutGraph is one ingress fanned out to two parallel VNF paths with
// separate egress pairs.
func fanOutGraph() *Graph {
	return &Graph{
		Name: "fanout",
		Nodes: []Node{
			{Name: "pA", Kind: KindPhysPair}, {Name: "pB", Kind: KindPhysPair},
			{Name: "va-if0", Kind: KindGuestIf, VM: "va"}, {Name: "va-if1", Kind: KindGuestIf, VM: "va"},
			{Name: "vb-if0", Kind: KindGuestIf, VM: "vb"}, {Name: "vb-if1", Kind: KindGuestIf, VM: "vb"},
			{Name: "pA2", Kind: KindPhysPair}, {Name: "pB2", Kind: KindPhysPair},
			{Name: "vnf-a", Kind: KindVNF, A: "va-if0", B: "va-if1"},
			{Name: "vnf-b", Kind: KindVNF, A: "vb-if0", B: "vb-if1"},
			{Name: "txA", Kind: KindGenerator, At: "pA", Probes: true},
			{Name: "txB", Kind: KindGenerator, At: "pB", Probes: true},
			{Name: "rxA", Kind: KindSink, At: "pA2"},
			{Name: "rxB", Kind: KindSink, At: "pB2"},
		},
		Edges: []Edge{
			{Kind: EdgeCross, A: "pA", B: "va-if0"},
			{Kind: EdgeCross, A: "pB", B: "vb-if0"},
			{Kind: EdgeCross, A: "va-if1", B: "pA2"},
			{Kind: EdgeCross, A: "vb-if1", B: "pB2"},
		},
	}
}

func TestFanOutGraphValidates(t *testing.T) {
	// A shape none of the paper's four scenarios takes: one ingress
	// fanned out to two parallel VNF paths with separate egress pairs.
	g := fanOutGraph()
	p, err := NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Ports) != 8 || len(p.Actors) != 6 {
		t.Fatalf("plan shape: %d ports, %d actors", len(p.Ports), len(p.Actors))
	}
}

func TestDOT(t *testing.T) {
	out, err := DOT(chainGraph(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"graph \"chain-1\"", "cluster_vm0", "x-conn", "vnf-vm1"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output lacks %q:\n%s", want, out)
		}
	}
	if _, err := DOT(&Graph{}); err == nil {
		t.Error("DOT validated an empty graph")
	}
}

// BenchmarkCompileTopology guards compiler overhead: compiling a graph
// must stay negligible next to the simulation it sets up.
func BenchmarkCompileTopology(b *testing.B) {
	g := chainGraph(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewPlan(g); err != nil {
			b.Fatal(err)
		}
	}
}
