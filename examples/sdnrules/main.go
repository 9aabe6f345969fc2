// Sdnrules: program the OvS-DPDK data plane through the typed
// switchdef.Programmer control plane and watch the three-tier lookup
// (EMC → megaflow → slow path) that explains its p2p performance in the
// paper — including what a rule Revoke does to the caches mid-traffic.
//
// The rules are typed values (switchdef.Rule), not ovs-ofctl strings: the
// same Install/Revoke surface the mid-run rule controller, the multi-core
// fleet, and every reprogrammable switch share. OvS lowers each rule into
// its OpenFlow table, the only copy of the program; the example prints
// each rule's Key — the (priority, match) identity Revoke addresses it by
// — beside that table entry's hit counter.
//
// The accompanying churn.json runs the same idea under the benchmark
// harness — a p2p topology with a controller node editing rules mid-run:
//
//	swbench topo -file examples/sdnrules/churn.json -format dot
//	swbench run -switch ovs -topology examples/sdnrules/churn.json \
//	        -rule-update-rate 20000 -flows 16384 -zipf 1.1
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"

	swbench "repro"
	"repro/internal/pkt"
	"repro/internal/switches/ovs"
	"repro/internal/switches/switchdef"
	"repro/internal/switches/switchtest"
)

func main() {
	env := switchtest.Env()
	sw := ovs.New(env)
	ports := make([]*switchtest.FakePort, 3)
	for i := range ports {
		ports[i] = switchtest.NewFakePort(fmt.Sprintf("p%d", i))
		sw.AddPort(ports[i])
	}

	// An SDN-ish rule set: steer one UDP flow to port 2, drop ARP, and
	// let everything else follow in_port-based forwarding.
	rules := []switchdef.Rule{
		{Priority: 200, Match: switchdef.Match{
			Fields:  switchdef.FEthType | switchdef.FIPProto | switchdef.FL4Dst,
			EthType: 0x0800, IPProto: 17, L4Dst: 4789,
		}, Actions: []switchdef.RuleAction{{Kind: switchdef.RuleOutput, Port: 2}}},
		{Priority: 150, Match: switchdef.Match{
			Fields: switchdef.FEthType, EthType: 0x0806,
		}, Actions: []switchdef.RuleAction{{Kind: switchdef.RuleDrop}}},
		{Priority: 100, Match: switchdef.Match{
			Fields: switchdef.FInPort, InPort: 0,
		}, Actions: []switchdef.RuleAction{
			{Kind: switchdef.RuleSetEthSrc, MAC: pkt.MAC{2, 0xaa, 0xaa, 0xaa, 0xaa, 0xaa}},
			{Kind: switchdef.RuleOutput, Port: 1},
		}},
		{Priority: 100, Match: switchdef.Match{
			Fields: switchdef.FInPort, InPort: 1,
		}, Actions: []switchdef.RuleAction{{Kind: switchdef.RuleOutput, Port: 0}}},
	}
	for _, r := range rules {
		if err := sw.Install(r); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("installed rules (the OpenFlow table holds %d):\n", len(sw.Rules()))
	for _, r := range rules {
		fmt.Println(" ", r.Key())
	}

	m := switchtest.Meter(env)
	mkFrame := func(dstPort uint16) *pkt.Buf {
		b := env.Pool.Get(64)
		pkt.FrameSpec{
			SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2},
			SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2},
			SrcPort: 1234, DstPort: dstPort, FrameLen: 64,
		}.Build(b)
		return b
	}

	fmt.Println("\n--- first packets of two flows (slow path, installs caches) ---")
	ports[0].In = append(ports[0].In, mkFrame(4789)) // VXLAN-ish flow → port 2
	ports[0].In = append(ports[0].In, mkFrame(80))   // plain flow → port 1
	switchtest.PollUntilIdle(sw, m, 0)
	report(sw, ports)

	fmt.Println("\n--- same flows again (exact-match cache hits) ---")
	for i := 0; i < 1000; i++ {
		ports[0].In = append(ports[0].In, mkFrame(4789), mkFrame(80))
	}
	switchtest.PollUntilIdle(sw, m, 1)
	report(sw, ports)

	fmt.Println("\n--- Revoke the VXLAN steering rule mid-traffic ---")
	// Revoke identifies the installed rule by (priority, match): the
	// caches holding its verdict are flushed, so the next VXLAN packet
	// takes the slow path again and now follows the in_port rule.
	if err := sw.Revoke(rules[0]); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		ports[0].In = append(ports[0].In, mkFrame(4789), mkFrame(80))
	}
	switchtest.PollUntilIdle(sw, m, 2)
	report(sw, ports)

	// The OpenFlow table keeps install order, so with rules[0] revoked
	// its entry i is typed rule i+1.
	fmt.Println("\nper-rule hit counters:")
	for i, r := range sw.Rules() {
		fmt.Printf("  %6d  %s\n", r.Hits, rules[i+1].Key())
	}

	runTopology()
}

// runTopology executes churn.json — the same p2p+controller graph the
// CLI invocation in the package comment runs — under the full harness,
// with mid-run rule churn against a Zipf flow mix.
func runTopology() {
	_, self, _, _ := runtime.Caller(0)
	data, err := os.ReadFile(filepath.Join(filepath.Dir(self), "churn.json"))
	if err != nil {
		log.Fatal(err)
	}
	graph, err := swbench.ParseTopology(data)
	if err != nil {
		log.Fatal(err)
	}
	res, err := swbench.Run(swbench.Config{
		Switch:         "ovs",
		Scenario:       swbench.Custom,
		Topology:       graph,
		FrameLen:       64,
		Duration:       4 * swbench.Millisecond,
		Flows:          16384,
		ZipfSkew:       1.1,
		RuleUpdateRate: 20000,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nchurn.json on ovs: %.2f Gbps, %d rule updates, %d EMC evictions\n",
		res.Gbps, res.RuleUpdates, res.EMCEvictions)
}

func report(sw *ovs.Switch, ports []*switchtest.FakePort) {
	fmt.Printf("  EMC hits=%d megaflow hits=%d slow-path=%d dropped=%d | out: p0=%d p1=%d p2=%d\n",
		sw.EMCHits, sw.MegaHits, sw.SlowHits, sw.Dropped,
		len(ports[0].Out), len(ports[1].Out), len(ports[2].Out))
	for _, p := range ports {
		for _, b := range p.Out {
			b.Free()
		}
		p.Out = nil
	}
}
