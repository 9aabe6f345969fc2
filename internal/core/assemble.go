package core

import (
	"fmt"

	"repro/internal/nic"
	"repro/internal/pkt"
	"repro/internal/switches/switchdef"
	"repro/internal/topo"
	"repro/internal/vm"
)

// wiredPort is what wiring keeps about one attached SUT port.
type wiredPort struct {
	dev  switchdef.DevPort // the switch's side
	gen  *nic.Port         // phys pair: the generator-side NIC behind the wire
	ifc  vm.NetIf          // guest if: the guest-side interface
	pool *pkt.Pool         // guest if: the owning VM's packet pool
}

// wire builds the scenario topology onto the switch by executing the
// config graph's Plan step by step — ports, then cross-connects, then
// actors — mirroring the paper's Fig. 3 placements: the SUT (and
// everything it drives) on NUMA node 0, MoonGen TX/RX on node 1 behind
// the physical wires. Placement primitives (addPhysPair, addGuestIf,
// frameSpec, the endpoint starters) stay on testbed.
func (tb *testbed) wire() error {
	plan, err := topo.NewPlan(tb.graph)
	if err != nil {
		return err
	}
	ports := make([]wiredPort, len(plan.Ports))
	tb.ports = ports
	for i, pp := range plan.Ports {
		if pp.Kind == topo.KindPhysPair {
			ports[i].dev, ports[i].gen = tb.addPhysPair(pp.Node)
		} else {
			// Guest interfaces of the same VM share one guest packet pool.
			for j := range plan.Ports[:i] {
				if plan.Ports[j].VM == pp.VM {
					ports[i].pool = ports[j].pool
					break
				}
			}
			if ports[i].pool == nil {
				ports[i].pool = tb.newPool(bufSize)
			}
			ports[i].dev, ports[i].ifc = tb.addGuestIf(pp.Node)
		}
		tb.sw.AddPort(ports[i].dev)
	}
	for _, c := range plan.Crosses {
		if err := tb.sw.CrossConnect(c.A, c.B); err != nil {
			return fmt.Errorf("core: cross-connecting %q—%q: %w", plan.Ports[c.A].Node, plan.Ports[c.B].Node, err)
		}
	}
	for _, a := range plan.Actors {
		switch a.Kind {
		case topo.KindGenerator:
			p := ports[a.At]
			spec := tb.frameSpec(a.At, a.Egress)
			if a.Guest {
				tb.guestGenerator(a.Name, p.ifc, p.pool, spec, a.Probes)
			} else {
				tb.nicGenerator(a.Name, p.gen, spec, a.Probes)
			}
		case topo.KindSink:
			tb.nicSink(a.Name, ports[a.At].gen)
		case topo.KindMonitor:
			tb.guestMonitor(a.Name, ports[a.At].ifc)
		case topo.KindVNF:
			tb.startVNF(a, ports)
		case topo.KindController:
			tb.startController(a.Name)
		}
	}
	return nil
}

// startController starts the control-plane actor, which programs the
// switch facade directly (multi-core runs broadcast through the fleet).
// With no update rate configured it stays idle — a declared controller
// with nothing to do.
func (tb *testbed) startController(name string) {
	if tb.cfg.RuleUpdateRate <= 0 {
		return
	}
	c := newRuleController(tb.sched, name, tb.sw, tb.cfg.RuleUpdateRate)
	c.Start(0)
	tb.controller = c
}

// startVNF starts a VNF's guest core. An empty app picks the switch's
// native chain VNF: a guest VALE instance over ptnet, DPDK l2fwd
// otherwise (topo.Validate admits no other app).
func (tb *testbed) startVNF(a topo.PlanActor, ports []wiredPort) {
	pa, pb := ports[a.A], ports[a.B]
	if a.App == "vale" || (a.App == "" && tb.info.VirtualIface == "ptnet") {
		fwd := &vm.ValeFwd{A: pa.ifc, B: pb.ifc, Pool: pa.pool}
		tb.guestCore(a.Name, fwd, pa.ifc, pb.ifc)
		return
	}
	fwd := &vm.L2Fwd{A: pa.ifc, B: pb.ifc, OwnMAC: switchdef.PortMAC(a.SrcMAC)}
	if a.RewriteAB != topo.NoPort {
		mac := switchdef.PortMAC(a.RewriteAB)
		fwd.RewriteAB = &mac
	}
	if a.RewriteBA != topo.NoPort {
		mac := switchdef.PortMAC(a.RewriteBA)
		fwd.RewriteBA = &mac
	}
	tb.guestCore(a.Name, fwd, pa.ifc, pb.ifc)
}
