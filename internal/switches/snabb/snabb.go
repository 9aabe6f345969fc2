// Package snabb models the Snabb switch (commit 771b55c): a Lua/LuaJIT app
// engine in which "apps" connected by links process packets in engine
// "breaths".
//
// Each breath has every NIC app pull packets from its device into its
// output link, then every NIC app push its input link to its device, in
// configuration order. Two Snabb signatures are modelled
// explicitly:
//
//   - LuaJIT warmup: per-packet cost starts high and decays as hot traces
//     compile (the paper credits Snabb's runtime optimization; its cost is
//     the elevated latency of the early packets and the periodic trace
//     work);
//   - overload collapse: past ~9 apps the trace cache churns and the
//     per-packet cost multiplies, reproducing the paper's throughput
//     plummet at 4-VNF loopback chains (Fig. 5) — "the workload is too
//     much to handle with a single core".
//
// Snabb implements its own vhost-user backend, priced slightly cheaper
// than DPDK's (VhostEnqScale, VhostDeqScale), which is why its v2v outperforms its p2v
// in Fig. 4.
package snabb

import (
	"fmt"
	"math"

	"repro/internal/cost"
	"repro/internal/pkt"
	"repro/internal/ring"
	"repro/internal/switches/switchdef"
	"repro/internal/units"
)

// LinkCap is the Snabb inter-app link ring size.
const LinkCap = 1024

// PullBatch is how many packets a source app pulls per breath.
const PullBatch = 128

// Cost constants, calibrated to land p2p 64B at ≈ 75 ns/packet (Fig. 4a:
// 8.9 Gbps unidirectional).
const (
	breathFixed   = 150 // engine loop, timeline, app housekeeping
	appRunFixed   = 70  // per app run per breath
	nicPerPkt     = 33  // NIC app per-packet work
	physRxExtra   = 39  // Snabb's own (non-DPDK) NIC driver receive tax
	physTxExtra   = 9
	linkPerPkt    = 9   // link push/pop
	warmupFactor  = 2.0 // initial JIT penalty multiplier (decays)
	warmupPackets = 30000
	thrashApps    = 9 // app count beyond which the trace cache thrashes
	thrashFactor  = 2.6
	jitterFrac    = 0.05
	// idleSleep is the engine's inter-breath pause while underloaded
	// (Snabb's timer-paced breath loop); it sets the low-load latency
	// floor and vanishes under backlog, leaving throughput unaffected.
	idleSleep      = 8 * units.Microsecond
	breathFullLoad = 32 // breaths at least this full run back to back
)

// Switch is a Snabb engine instance. Reconfiguration means recompiling
// the app network (engine.configure), not editing a live rule table, so
// the Programmer surface reports ErrNoRuntimeRules.
type Switch struct {
	switchdef.NoRuntimeRules
	switchdef.Counters

	env   switchdef.Env
	ports []switchdef.DevPort

	apps []*NICApp

	now     units.Time
	pktSeen int64

	// jit and gcFactor are the LuaJIT multiplier and GC-phase factor for
	// the breath in progress: now is fixed for the whole breath and
	// pktSeen only advances at its end, so both are breath constants,
	// resolved once in Poll instead of per app run.
	jit      float64
	gcFactor float64
}

var info = switchdef.Info{
	Name:              "snabb",
	Display:           "Snabb",
	Version:           "771b55c",
	SelfContained:     false,
	Paradigm:          "structured",
	ProcessingModel:   "pipeline",
	VirtualIface:      "vhost-user",
	Reprogrammability: "high",
	Languages:         "Lua, C",
	MainPurpose:       "VM-to-VM",
	BestAt:            "Fast deployment, runtime optimization",
	Remarks:           "Bottlenecked with multiple VNFs",
	IOMode:            switchdef.PollMode,
	VhostEnqScale:     1.4,
	VhostDeqScale:     0.45,
}

// New returns an empty Snabb engine.
func New(env switchdef.Env) *Switch { return &Switch{env: env} }

// AddPort implements switchdef.Switch.
func (sw *Switch) AddPort(p switchdef.DevPort) int {
	sw.ports = append(sw.ports, p)
	return len(sw.ports) - 1
}

// jitScale is the current LuaJIT cost multiplier.
func (sw *Switch) jitScale() float64 {
	s := 1 + warmupFactor*math.Exp(-float64(sw.pktSeen)/warmupPackets)
	if len(sw.apps) > thrashApps {
		s *= thrashFactor
	}
	return s
}

func (sw *Switch) chargeApp(m *cost.Meter, perPkt units.Cycles, n int) {
	c := appRunFixed + units.Cycles(n)*perPkt
	m.ChargeNoisy(cost.ScaleBy(sw.gcFactor, units.Cycles(float64(c)*sw.jit)), jitterFrac)
}

// CrossConnect implements switchdef.Switch like the paper's custom module:
//
//	config.app(c, "nic1", ..., {pciaddr = pci1})
//	config.app(c, "nic2", ..., {pciaddr = pci2})
//	config.link(c, "nic1.tx -> nic2.rx")
//
// and the reverse link: one NIC app per port, joined by a link each way.
func (sw *Switch) CrossConnect(a, b int) error {
	for _, p := range []int{a, b} {
		if p < 0 || p >= len(sw.ports) {
			return fmt.Errorf("snabb: no port %d", p)
		}
	}
	ab, ba := ring.New(LinkCap), ring.New(LinkCap)
	sw.apps = append(sw.apps,
		&NICApp{dev: sw.ports[a], out: ab, in: ba},
		&NICApp{dev: sw.ports[b], out: ba, in: ab})
	return nil
}

// gcMod models LuaJIT GC/trace maintenance phases.
var gcMod = cost.Modulation{
	HighFactor: 1.06, HighDur: units.Millisecond,
	LowFactor: 0.98, LowDur: units.Millisecond,
}

// Poll implements switchdef.Switch: one engine breath over every app.
// Multi-core runs give each core its own Switch instance — Snabb's real
// scaling model, one engine process per core — see internal/multicore.
func (sw *Switch) Poll(now units.Time, m *cost.Meter) bool {
	sw.now = now
	sw.jit = sw.jitScale()
	sw.gcFactor = gcMod.Factor(now)
	m.Charge(breathFixed)
	worked := 0
	for _, a := range sw.apps {
		worked += a.Pull(sw, now, m)
	}
	for _, a := range sw.apps {
		worked += a.Push(sw, now, m)
	}
	if worked == 0 {
		// Engine sleeps between idle breaths.
		m.Stall(idleSleep)
		return false
	}
	sw.pktSeen += int64(worked)
	if worked < breathFullLoad {
		// Underloaded: the engine paces breaths on its timer.
		m.Stall(idleSleep)
	}
	return true
}

// NICApp couples a device to a pair of links (inter-app rings).
type NICApp struct {
	scratch [PullBatch]*pkt.Buf // staging, reused across breaths

	dev     switchdef.DevPort
	out, in *ring.SPSC
}

// Pull moves frames device → out link.
func (a *NICApp) Pull(sw *Switch, now units.Time, m *cost.Meter) int {
	burst := &a.scratch
	space := a.out.Free()
	if space == 0 {
		return 0
	}
	if space > PullBatch {
		space = PullBatch
	}
	n := a.dev.RxBurst(now, m, burst[:space])
	if n == 0 {
		return 0
	}
	per := units.Cycles(nicPerPkt + linkPerPkt)
	if a.dev.Kind() == switchdef.PhysKind {
		per += physRxExtra
	}
	frames := pkt.Frames(burst[:n])
	sw.chargeApp(m, per, frames)
	for _, b := range burst[:n] {
		a.out.Push(b)
	}
	return frames
}

// Push moves frames in link → device. A link slot may hold a run
// (pkt.Buf.Run); a breath's pull, at most PullBatch frames, always fits
// in LinkCap slots, and the push drains it whole.
func (a *NICApp) Push(sw *Switch, now units.Time, m *cost.Meter) int {
	burst := &a.scratch
	n := a.in.DrainTo(burst[:])
	if n == 0 {
		return 0
	}
	per := units.Cycles(nicPerPkt + linkPerPkt)
	if a.dev.Kind() == switchdef.PhysKind {
		per += physTxExtra
	}
	frames := pkt.Frames(burst[:n])
	sw.chargeApp(m, per, frames)
	sw.Transmit(now, m, a.dev, burst[:n], frames)
	return frames
}

func init() {
	switchdef.Register(info, func(env switchdef.Env) switchdef.Switch { return New(env) })
}
