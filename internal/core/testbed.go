package core

import (
	"cmp"
	"fmt"
	"os"

	"repro/internal/cost"
	"repro/internal/cpu"
	"repro/internal/multicore"
	"repro/internal/nic"
	"repro/internal/pcap"
	"repro/internal/pkt"
	"repro/internal/ptnet"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/switches/switchdef"
	"repro/internal/tgen"
	"repro/internal/topo"
	"repro/internal/units"
	"repro/internal/vhost"
	"repro/internal/vm"

	// Register the seven evaluated switches.
	_ "repro/internal/switches/bess"
	_ "repro/internal/switches/fastclick"
	_ "repro/internal/switches/ovs"
	_ "repro/internal/switches/snabb"
	_ "repro/internal/switches/t4p4s"
	_ "repro/internal/switches/vale"
	_ "repro/internal/switches/vpp"
)

// Testbed parameters mirroring the measurement platform (§5.1).
const (
	bufSize        = 2048
	genRingSize    = 4096 // generator-side NIC rings never drop
	defaultNICRing = 512
	valeITR        = 50 * units.Microsecond // NIC interrupt moderation for netmap
	ptnetNotify    = 3 * units.Microsecond  // ptnet doorbell→host wakeup
	guestIdleStep  = 400 * units.Nanosecond // guest core poll granularity when idle
	swStampNoise   = 2 * units.Microsecond  // software timestamping inaccuracy

	// Container-mode virtio parameters (virtio-user: no VM exits).
	containerScale  = 0.8
	containerNotify = 3 * units.Microsecond
)

// sut is what the testbed does to the System Under Test once it is built:
// attach ports, cross-connect them, program rules and read its data-plane
// ledger. A single-core
// switch and a multi-core fleet both take it; the poll loops are mounted
// from the switch itself (or the fleet's Polls) in build.
type sut interface {
	AddPort(p switchdef.DevPort) int
	CrossConnect(a, b int) error
	switchdef.Programmer
	Counts() *switchdef.Counters
}

// testbed is one assembled simulation.
type testbed struct {
	cfg   Config
	info  switchdef.Info
	sched *sim.Scheduler
	rng   *sim.RNG
	model *cost.Model

	sw       sut
	fleet    *multicore.Fleet // non-nil when SUTCores > 1 (then sw == fleet)
	graph    *topo.Graph
	ports    []wiredPort // the switch's attached ports, in AddPort order
	sutPolls []*cpu.PollCore
	sutIRQ   *cpu.IRQCore

	hostPool *pkt.Pool
	genPool  *pkt.Pool // shared by every NIC generator
	// pools tracks every packet pool the testbed created so measure can
	// release their free lists once the measurement is collected: a
	// saturating cell's pools grow to the high-water mark of in-flight
	// frames, and a campaign holds many cells' worth of testbeds between
	// GC cycles.
	pools []*pkt.Pool

	gens     []*tgen.Generator
	sinks    []*tgen.Sink
	monitors []*vm.Monitor
	// controller is the control-plane churn actor (nil unless the graph
	// declares one).
	controller *ruleController

	guestCores []*cpu.PollCore

	// endpoints are the directions' delivery points, in direction order.
	endpoints []endpoint
}

// endpoint is one direction's delivery point — a NIC sink or a guest
// monitor: its delivered-frame counter and its probe-RTT histogram.
type endpoint struct {
	rx   *stats.Counter
	hist *stats.Histogram
}

// newPool creates a packet pool registered for end-of-run release.
func (tb *testbed) newPool(bufSize int) *pkt.Pool {
	p := pkt.NewPool(bufSize)
	tb.pools = append(tb.pools, p)
	return p
}

// releasePools drops every pool's free list so the GC can reclaim the
// cell's buffer high-water mark as soon as the measurement is done.
func (tb *testbed) releasePools() {
	for _, p := range tb.pools {
		p.Trim(0)
	}
}

// build assembles the testbed for cfg.
func build(cfg Config) (*testbed, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	info, err := switchdef.Lookup(cfg.Switch)
	if err != nil {
		return nil, err
	}
	if cfg.Scenario == Loopback && !cfg.Containers && info.MaxLoopbackVNFs > 0 && cfg.Chain > info.MaxLoopbackVNFs {
		return nil, fmt.Errorf("%w: %s supports at most %d loopback VNFs", ErrChainTooLong, info.Display, info.MaxLoopbackVNFs)
	}

	tb := &testbed{
		cfg:   cfg,
		info:  info,
		sched: sim.NewScheduler(),
		rng:   sim.NewRNG(cfg.Seed),
		model: cost.Default(),
	}
	tb.graph, err = cfg.Graph()
	if err != nil {
		return nil, err
	}

	tb.hostPool = tb.newPool(bufSize)
	tb.genPool = tb.newPool(bufSize)

	// single is the SUT of a single-core run, the source of its poll
	// loop and idle hint.
	var single switchdef.Switch
	if cfg.SUTCores > 1 {
		if info.IOMode == switchdef.InterruptMode {
			return nil, fmt.Errorf("%w: interrupt-driven %s runs its data plane in one kernel context", ErrNoMultiCore, info.Display)
		}
		// Multi-core: one private switch instance per worker core behind
		// the fleet facade, so wiring fans out to every instance.
		fleet, err := multicore.New(multicore.Options{
			Cores:    cfg.SUTCores,
			Dispatch: cfg.Dispatch,
			Policy:   cfg.RSSPolicy,
			NUMA:     cost.DefaultNUMA(),
			QueueCap: tb.nicRing(),
			NewInstance: func(k int) (switchdef.Switch, error) {
				return switchdef.New(cfg.Switch, switchdef.Env{
					Model: tb.model,
					RNG:   tb.rng.Derive(fmt.Sprintf("mc-inst%d", k)),
					Pool:  tb.hostPool,
				})
			},
		})
		if err != nil {
			return nil, err
		}
		tb.sw = fleet
		tb.fleet = fleet
	} else {
		sw, err := switchdef.New(cfg.Switch, switchdef.Env{
			Model: tb.model,
			RNG:   tb.rng,
			Pool:  tb.hostPool,
		})
		if err != nil {
			return nil, err
		}
		tb.sw, single = sw, sw
		// Interrupt-driven SUTs need their core before wiring (devices
		// bind their IRQ lines to it); poll-mode cores are created after
		// wiring.
		if info.IOMode == switchdef.InterruptMode {
			meter := cost.NewMeter(tb.model, tb.rng.Derive("sut"))
			tb.sutIRQ = cpu.NewIRQCore(tb.sched, "sut", meter, sw.Poll)
		}
	}

	if err := tb.wire(); err != nil {
		return nil, err
	}

	if info.IOMode == switchdef.PollMode {
		if tb.fleet == nil {
			meter := cost.NewMeter(tb.model, tb.rng.Derive("sut"))
			c := cpu.NewPollCore(tb.sched, "sut", meter, single.Poll)
			// Switches with an idle hint sleep through empty polls; every
			// port then wakes the core when input arrives. Snabb's breaths
			// are time-dependent and keep polling, and so do fleet cores.
			if w, ok := single.(cpu.Waiter); ok {
				c.Waiter = w
				for _, p := range tb.ports {
					bindConsumer(p.dev, c)
				}
			}
			c.Start(0)
			tb.sutPolls = append(tb.sutPolls, c)
		} else {
			for _, cp := range tb.fleet.Polls() {
				meter := cost.NewMeter(tb.model, tb.rng.Derive(cp.Name))
				c := cpu.NewPollCore(tb.sched, cp.Name, meter, cp.Fn)
				c.Start(0)
				tb.sutPolls = append(tb.sutPolls, c)
			}
		}
	}
	return tb, nil
}

// nicRing returns the SUT-side descriptor ring size (Table 2 tunings).
func (tb *testbed) nicRing() int {
	if tb.info.RxRingOverride > 0 {
		return tb.info.RxRingOverride
	}
	return defaultNICRing
}

// addPhysPair creates a SUT NIC port wired to a generator-side NIC port,
// returning the switch's device and the generator side.
func (tb *testbed) addPhysPair(name string) (switchdef.DevPort, *nic.Port) {
	itr := units.Time(0)
	if tb.info.IOMode == switchdef.InterruptMode {
		itr = valeITR
	}
	sutNIC := nic.NewPort(nic.Config{
		Name:   "sut-" + name,
		TxRing: tb.nicRing(), RxRing: tb.nicRing(),
		ITR: itr,
	})
	genNIC := nic.NewPort(nic.Config{
		Name:   "gen-" + name,
		TxRing: genRingSize, RxRing: genRingSize,
		HWTimestamp: true,
	})
	nic.Connect(sutNIC, genNIC)
	if tb.sutIRQ != nil {
		sutNIC.BindIRQ(tb.sutIRQ)
	}
	dev := &switchdef.PhysPort{
		Port:     sutNIC,
		Unpriced: tb.info.IOMode == switchdef.InterruptMode,
	}
	return dev, genNIC
}

// addGuestIf creates one guest interface pair (host DevPort + guest NetIf)
// of the kind the switch uses.
func (tb *testbed) addGuestIf(name string) (switchdef.DevPort, vm.NetIf) {
	if tb.info.VirtualIface == "ptnet" {
		dev := ptnet.New(ptnet.Config{Name: name, NotifyDelay: ptnetNotify})
		if tb.sutIRQ != nil {
			dev.BindHostIRQ(tb.sutIRQ)
		}
		return &switchdef.PtnetPort{Dev: dev}, &vm.PtnetIf{Dev: dev}
	}
	vcfg := vhost.Config{
		Name:     name,
		EnqScale: tb.info.VhostEnqScale,
		DeqScale: tb.info.VhostDeqScale,
	}
	if tb.cfg.Containers {
		// Container networking (virtio-user) skips the VM exit path:
		// cheaper crossings and faster notification.
		vcfg.EnqScale = containerScale * cmp.Or(vcfg.EnqScale, 1)
		vcfg.DeqScale = containerScale * cmp.Or(vcfg.DeqScale, 1)
		vcfg.GuestNotifyDelay = containerNotify
	}
	dev := vhost.New(vcfg)
	return &switchdef.VhostPort{Dev: dev}, &vm.VirtioIf{Dev: dev}
}

// guestApp is a VNF or measurement app on a guest vCPU; every one has an
// idle hint.
type guestApp interface {
	Poll(now units.Time, m *cost.Meter) bool
	cpu.Waiter
}

// guestCore starts a poll-mode guest vCPU running app, which reads inputs:
// the core sleeps through empty polls and each input wakes it.
func (tb *testbed) guestCore(name string, app guestApp, inputs ...vm.NetIf) *cpu.PollCore {
	m := cost.NewMeter(tb.model, tb.rng.Derive(name))
	c := cpu.NewPollCore(tb.sched, name, m, app.Poll)
	c.IdleStep = guestIdleStep
	c.Waiter = app
	for _, in := range inputs {
		bindConsumer(in, c)
	}
	tb.guestCores = append(tb.guestCores, c)
	c.Start(0)
	return c
}

// bindConsumer makes the device behind one receive endpoint — a SUT
// DevPort or a guest NetIf — notify c when input is posted toward it.
// Ptnet host sides are absent: their consumer is VALE's interrupt core,
// which the doorbell already wakes.
func bindConsumer(endpoint any, c *cpu.PollCore) {
	switch e := endpoint.(type) {
	case *switchdef.PhysPort:
		e.Port.BindPoll(c)
	case *switchdef.VhostPort:
		e.Dev.BindHost(c)
	case *vm.VirtioIf:
		e.Dev.BindGuest(c)
	case *vm.PtnetIf:
		e.Dev.BindGuest(c)
	}
}

// frameSpec builds the synthetic single-flow template for a direction whose
// traffic enters the SUT on port `in` and must leave on port `out`.
func (tb *testbed) frameSpec(in, out int) pkt.FrameSpec {
	return pkt.FrameSpec{
		SrcMAC:   switchdef.PortMAC(in),
		DstMAC:   switchdef.PortMAC(out),
		SrcIP:    [4]byte{10, 0, byte(in), 1},
		DstIP:    [4]byte{10, 0, byte(out), 2},
		SrcPort:  1000 + uint16(in),
		DstPort:  2000 + uint16(out),
		FrameLen: tb.cfg.FrameLen,
	}
}

// nicGenerator starts a MoonGen TX thread on a generator NIC port.
func (tb *testbed) nicGenerator(name string, port *nic.Port, spec pkt.FrameSpec, probes bool) *tgen.Generator {
	cfg := tgen.Config{
		Name:  name,
		Port:  port,
		Pool:  tb.genPool,
		Spec:  spec,
		Rate:  tb.cfg.Rate,
		Flows: tb.cfg.Flows,
		IMIX:  tb.cfg.IMIX,
	}
	if tb.cfg.ZipfSkew > 0 {
		cfg.ZipfSkew = tb.cfg.ZipfSkew
		cfg.RNG = tb.rng.Derive("zipf-" + name)
	}
	if probes && tb.cfg.ProbeEvery > 0 {
		cfg.ProbeEvery = tb.cfg.ProbeEvery
	}
	g := tgen.NewGenerator(tb.sched, cfg)
	g.Start(0)
	tb.gens = append(tb.gens, g)
	return g
}

// nicSink starts a MoonGen RX / monitor thread on a generator NIC port and
// registers it as the delivery endpoint of one direction.
func (tb *testbed) nicSink(name string, port *nic.Port) *tgen.Sink {
	s := tgen.NewSink(tb.sched, name, port)
	s.Start(0)
	tb.sinks = append(tb.sinks, s)
	tb.endpoints = append(tb.endpoints, endpoint{&s.Rx, &s.Hist})
	return s
}

// guestMonitor starts FloWatcher/pkt-gen-RX on a guest interface and
// registers it as a direction endpoint.
func (tb *testbed) guestMonitor(name string, ifc vm.NetIf) *vm.Monitor {
	mo := &vm.Monitor{If: ifc, SWStampNoise: swStampNoise, RNG: tb.rng.Derive(name)}
	tb.monitors = append(tb.monitors, mo)
	tb.guestCore(name, mo, ifc)
	tb.endpoints = append(tb.endpoints, endpoint{&mo.Rx, &mo.Hist})
	return mo
}

// guestGenerator starts MoonGen/pkt-gen TX inside a VM. MoonGen's port
// profile caps virtio guests at 10 Gbps; pkt-gen over ptnet is unlimited.
func (tb *testbed) guestGenerator(name string, ifc vm.NetIf, pool *pkt.Pool, spec pkt.FrameSpec, probes bool) *vm.Generator {
	g := &vm.Generator{
		If:   ifc,
		Pool: pool,
		Spec: spec,
	}
	if tb.info.VirtualIface != "ptnet" {
		g.VirtualRate = units.TenGigE
	}
	if tb.cfg.Rate > 0 {
		g.VirtualRate = tb.cfg.Rate
	}
	if probes && tb.cfg.ProbeEvery > 0 {
		g.ProbeEvery = tb.cfg.ProbeEvery
	}
	m := cost.NewMeter(tb.model, tb.rng.Derive(name))
	vm.StartGenerator(tb.sched, name, g, m, 0)
	return g
}

// attachCapture dumps frames delivered to the first NIC sink (or guest
// monitor) into a pcap file; the returned function closes it.
func (tb *testbed) attachCapture(path string) (func(), error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w, err := pcap.NewWriter(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	hook := func(at units.Time, b *pkt.Buf) { _ = w.WritePacket(at, b) }
	switch {
	case len(tb.sinks) > 0:
		tb.sinks[0].Capture = hook
	case len(tb.monitors) > 0:
		tb.monitors[0].Capture = hook
	default:
		f.Close()
		return nil, fmt.Errorf("core: no measurement endpoint to capture")
	}
	return func() { f.Close() }, nil
}
