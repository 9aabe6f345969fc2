// Customswitch: implement your own software switch against the public SUT
// contract, register it, and benchmark it with the paper's methodology
// alongside the seven reference switches.
//
// The toy switch here ("naive") is a deliberately simple store-and-forward
// cross-connect with a heavy per-packet cost — watch where it lands in the
// p2p ranking and in the loopback chain sweep.
package main

import (
	"fmt"
	"log"

	swbench "repro"
)

// naiveSwitch forwards between cross-connected ports one packet at a time.
// It has no runtime rule table, so it embeds the Programmer stub, and it
// books what it forwards and drops in the embedded ledger.
type naiveSwitch struct {
	swbench.NoRuntimeRules
	swbench.SwitchCounters

	env   swbench.Env
	ports []swbench.DevPort
	peer  map[int]int
}

var naiveInfo = swbench.SwitchInfo{
	Name:              "naive",
	Display:           "NaiveSwitch",
	Version:           "v0.1",
	SelfContained:     true,
	Paradigm:          "structured",
	ProcessingModel:   "RTC",
	VirtualIface:      "vhost-user",
	Reprogrammability: "low",
	Languages:         "Go",
	MainPurpose:       "Example",
	BestAt:            "Being simple",
	Remarks:           "Deliberately slow per-packet loop",
	IOMode:            swbench.PollMode,
}

func (s *naiveSwitch) AddPort(p swbench.DevPort) int {
	s.ports = append(s.ports, p)
	return len(s.ports) - 1
}

func (s *naiveSwitch) CrossConnect(a, b int) error {
	if a < 0 || b < 0 || a >= len(s.ports) || b >= len(s.ports) {
		return fmt.Errorf("naive: bad ports %d,%d", a, b)
	}
	s.peer[a], s.peer[b] = b, a
	return nil
}

func (s *naiveSwitch) Poll(now swbench.Time, m *swbench.Meter) bool {
	did := false
	var buf [1]*swbench.Buf
	for i, p := range s.ports {
		dst, ok := s.peer[i]
		if !ok {
			continue
		}
		// One packet at a time — no batching, so per-burst fixed costs
		// never amortize. ~200 cycles of "logic" per packet.
		for p.RxBurst(now, m, buf[:]) == 1 {
			did = true
			m.Charge(200)
			s.Transmit(now, m, s.ports[dst], buf[:], buf[0].Run())
		}
	}
	return did
}

func main() {
	swbench.Register(naiveInfo, func(env swbench.Env) swbench.Switch {
		return &naiveSwitch{env: env, peer: map[int]int{}}
	})

	fmt.Println("p2p 64B unidirectional ranking, with the custom switch included:")
	names := append(swbench.Switches(), "naive")
	for _, name := range names {
		res, err := swbench.Run(swbench.Config{
			Switch:   name,
			Scenario: swbench.P2P,
			FrameLen: 64,
			Duration: 6 * swbench.Millisecond,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s %6.2f Gbps (%5.2f Mpps, drops=%d)\n", name, res.Gbps, res.Mpps, res.Drops)
	}

	// The methodology generalizes: R⁺ and a latency ladder for the toy.
	cfg := swbench.Config{Switch: "naive", Scenario: swbench.P2P, FrameLen: 64,
		Duration: 6 * swbench.Millisecond}
	rp, err := swbench.EstimateRPlus(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nnaive R+ = %.2f Mpps; latency ladder:\n", rp/1e6)
	pts, err := swbench.LatencyProfile(cfg, swbench.Table3Loads)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range pts {
		fmt.Printf("  %.2f·R+ → mean %.1f us (p99 %.1f us)\n", p.Load, p.Summary.MeanUs, p.Summary.P99Us)
	}
}
