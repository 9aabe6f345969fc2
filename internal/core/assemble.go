package core

import (
	"fmt"

	"repro/internal/nic"
	"repro/internal/pkt"
	"repro/internal/switches/switchdef"
	"repro/internal/topo"
	"repro/internal/vm"
)

// wire builds the scenario topology onto the switch by compiling the
// config's declarative graph, mirroring the paper's Fig. 3 placements:
// the SUT (and everything it drives) on NUMA node 0, MoonGen TX/RX on
// node 1 behind the physical wires.
func (tb *testbed) wire() error {
	return topo.Compile(tb.graph, newAssembler(tb))
}

// asmPort is what the assembler remembers about one attached SUT port.
type asmPort struct {
	gen  *nic.Port // phys pair: the generator-side NIC behind the wire
	ifc  vm.NetIf  // guest if: the guest-side interface
	pool *pkt.Pool // guest if: the owning VM's packet pool
}

// assembler materializes a topology graph into a testbed; it implements
// topo.Assembler. Placement primitives (addPhysPair, addGuestIf, attach,
// frameSpec, the endpoint starters) stay on testbed — the assembler
// decides what to call with which ports, the testbed knows how.
type assembler struct {
	tb      *testbed
	ports   map[int]asmPort
	vmPools map[string]*pkt.Pool
}

func newAssembler(tb *testbed) *assembler {
	return &assembler{
		tb:      tb,
		ports:   make(map[int]asmPort),
		vmPools: make(map[string]*pkt.Pool),
	}
}

// AddPhysPair implements topo.Assembler.
func (a *assembler) AddPhysPair(name string) (int, error) {
	sp, gen := a.tb.addPhysPair(name)
	p := a.tb.attach(sp)
	a.ports[p] = asmPort{gen: gen}
	return p, nil
}

// AddGuestIf implements topo.Assembler. Guest interfaces of the same VM
// share one guest packet pool.
func (a *assembler) AddGuestIf(name, vmName string) (int, error) {
	pool, ok := a.vmPools[vmName]
	if !ok {
		pool = a.tb.newPool(bufSize)
		a.vmPools[vmName] = pool
	}
	sp, ifc := a.tb.addGuestIf(name)
	p := a.tb.attach(sp)
	a.ports[p] = asmPort{ifc: ifc, pool: pool}
	return p, nil
}

// CrossConnect implements topo.Assembler.
func (a *assembler) CrossConnect(x, y int) error {
	return a.tb.sw.CrossConnect(x, y)
}

// Generator implements topo.Assembler.
func (a *assembler) Generator(name string, at, egress int, probes bool) error {
	a.tb.nicGenerator(name, a.ports[at].gen, a.tb.frameSpec(at, egress), probes)
	return nil
}

// GuestGenerator implements topo.Assembler.
func (a *assembler) GuestGenerator(name string, at, egress int, probes bool) error {
	p := a.ports[at]
	a.tb.guestGenerator(name, p.ifc, p.pool, a.tb.frameSpec(at, egress), probes)
	return nil
}

// Sink implements topo.Assembler.
func (a *assembler) Sink(name string, at int) error {
	a.tb.nicSink(name, a.ports[at].gen)
	return nil
}

// Monitor implements topo.Assembler.
func (a *assembler) Monitor(name string, at int) error {
	a.tb.guestMonitor(name, a.ports[at].ifc)
	return nil
}

// Controller implements topo.Assembler: the control-plane actor programs
// the switch facade directly (multi-core runs broadcast through the
// fleet). With no update rate configured it stays idle — a declared
// controller with nothing to do.
func (a *assembler) Controller(name string) error {
	if a.tb.cfg.RuleUpdateRate <= 0 {
		return nil
	}
	c := newRuleController(a.tb.sched, name, a.tb.sw, a.tb.cfg.RuleUpdateRate)
	c.Start(0)
	a.tb.controller = c
	return nil
}

// VNF implements topo.Assembler. An empty app picks the switch's native
// chain VNF: a guest VALE instance over ptnet, DPDK l2fwd otherwise.
func (a *assembler) VNF(name string, pa, pb, srcMAC, rewriteAB, rewriteBA int, app string) error {
	if app == "" {
		if a.tb.info.VirtualIface == "ptnet" {
			app = "vale"
		} else {
			app = "l2fwd"
		}
	}
	switch app {
	case "vale":
		fwd := &vm.ValeFwd{A: a.ports[pa].ifc, B: a.ports[pb].ifc, Pool: a.ports[pa].pool}
		a.tb.guestCore(name, fwd.Poll)
	case "l2fwd":
		fwd := &vm.L2Fwd{
			A: a.ports[pa].ifc, B: a.ports[pb].ifc,
			OwnMAC: switchdef.PortMAC(srcMAC),
		}
		if rewriteAB != topo.NoPort {
			mac := switchdef.PortMAC(rewriteAB)
			fwd.RewriteAB = &mac
		}
		if rewriteBA != topo.NoPort {
			mac := switchdef.PortMAC(rewriteBA)
			fwd.RewriteBA = &mac
		}
		a.tb.guestCore(name, fwd.Poll)
	default:
		return fmt.Errorf("core: unknown VNF app %q", app)
	}
	return nil
}
