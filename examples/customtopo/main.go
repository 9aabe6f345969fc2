// Customtopo: run a topology none of the paper's four scenarios can
// express — an asymmetric 3-VNF service chain that enters through a
// physical NIC but terminates inside a fourth VM (phys → vnf → vnf →
// vnf → guest monitor), so there is no return NIC at all.
//
// The chain is pure data (chain3.json): typed nodes and cross-connect
// edges, parsed and validated by the topology IR and compiled onto each
// switch by the same graph compiler the built-in scenarios use. The same
// file runs from the CLI:
//
//	swbench topo -file examples/customtopo/chain3.json -format dot
//	swbench run -switch vpp -topology examples/customtopo/chain3.json -latency
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"text/tabwriter"

	swbench "repro"
)

func main() {
	// Locate chain3.json next to this source file, so the example runs
	// from any working directory.
	_, self, _, _ := runtime.Caller(0)
	data, err := os.ReadFile(filepath.Join(filepath.Dir(self), "chain3.json"))
	if err != nil {
		log.Fatal(err)
	}
	graph, err := swbench.ParseTopology(data)
	if err != nil {
		log.Fatal(err)
	}

	// The compiled plan shows what the testbed will install: SUT port
	// indices, cross-connects, and each VNF's derived MAC rewrites.
	plan, err := swbench.PlanTopology(graph)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("topology %q: %d SUT ports, %d cross-connects, %d actors\n\n",
		graph.Name, len(plan.Ports), len(plan.Crosses), len(plan.Actors))

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "switch\tGbps\tMpps\tmean RTT (us)\tp99 (us)")
	for _, name := range swbench.Switches() {
		res, err := swbench.Run(swbench.Config{
			Switch:     name,
			Scenario:   swbench.Custom,
			Topology:   graph,
			FrameLen:   64,
			Duration:   4 * swbench.Millisecond,
			ProbeEvery: 20 * swbench.Microsecond,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "%s\t%.2f\t%.2f\t%.1f\t%.1f\n",
			name, res.Gbps, res.Mpps, res.Latency.MeanUs, res.Latency.P99Us)
	}
	w.Flush()
	fmt.Println("\nEach switch hosts the same declarative graph; per-switch")
	fmt.Println("differences (vhost-user vs. ptnet guest ports, l2fwd vs. guest")
	fmt.Println("VALE VNFs) are decided by the testbed, not the topology.")
}
