// Package swbench is a benchmarking testbed for NFV software switches: a
// Go reproduction of "Comparing the Performance of State-of-the-Art
// Software Switches for NFV" (Zhang, Linguaglossa, Gallo, Giaccone,
// Iannone, Roberts — ACM CoNEXT 2019).
//
// The package implements the paper's methodology — four test scenarios
// (p2p, p2v, v2v, loopback service chains) and two metrics (throughput,
// and RTT latency at 0.10/0.50/0.99 of the maximal forwarding rate R⁺) —
// over a deterministic discrete-event simulation of the paper's testbed:
// 10 GbE NICs with descriptor rings and PTP timestamping, a single
// isolated SUT core with cycle-level cost accounting, vhost-user and ptnet
// virtual interfaces, QEMU guests running DPDK l2fwd VNFs, and
// MoonGen-style traffic generation. Seven switch data planes are
// implemented for real (OvS-DPDK with EMC/megaflow caches, VPP's vector
// graph, FastClick's element language, BESS modules, Snabb's app engine,
// the VALE learning bridge, and a t4p4s P4 pipeline); only time is
// simulated.
//
// Quick start:
//
//	res, err := swbench.Run(swbench.Config{
//		Switch:   "vpp",
//		Scenario: swbench.P2P,
//		FrameLen: 64,
//	})
//	if err != nil { ... }
//	fmt.Printf("%.2f Gbps\n", res.Gbps)
//
// Every figure and table of the paper's evaluation, and the scaling and
// churn extensions, sit in one ordered registry, Experiments: each entry
// runs on a Runner and reports as text and CSV, and cmd/swbench's figure,
// table and all verbs are lookups in it. The grid figures ("4a", "4b", "4c",
// "5", "6", "scaling", "churn") are also one call each — FigureOn, with
// RenderFigure and WriteFigureCSV — and Figure1On, Table3On and Table4On run
// the three R⁺-relative experiments. All take a Runner, so whole experiment
// grids can fan out over a worker pool: NewOrchestrator builds one with
// bounded parallelism, a content-addressed result cache (OpenResultCache),
// per-cell panic isolation and timeouts, and a progress event stream, while
// preserving bit-identical deterministic output; SerialRunner{} runs the
// cells one after another — the paper's methodology. Beyond that the façade
// exports Run/RunWindows, the R⁺ and NDR methodology, named campaigns and
// the distributed fabric, the topology IR, and the switch contract and rule
// surface for custom SUTs. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for measured-vs-paper results.
package swbench
