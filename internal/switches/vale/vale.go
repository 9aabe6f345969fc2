// Package vale models the VALE/mSwitch L2 software switch (netmap commit
// 1b5361d): a learning Ethernet bridge in the netmap kernel module.
//
// Three properties from the paper are modelled explicitly:
//
//   - interrupt-driven I/O: unlike the DPDK switches, VALE's core sleeps
//     and is woken by NIC interrupts (moderated) or ptnet doorbells — the
//     source of its ~32 µs p2p latency floor and of its adaptive batching
//     (it processes everything pending per wakeup, so low-load latency
//     does not degrade the way strict-batch DPDK pipelines do);
//   - per-hop copies: VALE copies every frame between its ports to
//     preserve memory isolation (the paper's explanation for its p2p
//     numbers), while ptnet makes the guest crossing itself zero-copy;
//   - NIC path tax: packets touching a physical port pay the netmap
//     driver/IRQ bookkeeping that ptnet ports avoid, which is why v2v
//     (10.5 Gbps at 64B) far outruns p2p/p2v (≈5.6 Gbps).
//
// A Switch hosts one two-port VALE bridge instance per cross-connect — the
// loopback scenario needs N+1 of them — all served by the same core, as in
// the paper's single-core SUT deployment.
package vale

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/l2"
	"repro/internal/pkt"
	"repro/internal/switches/switchdef"
	"repro/internal/units"
)

// Burst bounds how many frames one bridge-port service takes per wakeup;
// VALE adapts the batch to what is pending.
const Burst = 256

// Cost constants, calibrated against Fig. 4: p2p ≈ 5.56 Gbps, p2v ≈ 5.77,
// v2v ≈ 10.5 (64B, unidirectional).
const (
	copyBase         = 12  // per-frame copy setup
	copyPerByteMilli = 200 // 0.3 cycles/B inter-port copy
	lookupPerPkt     = 22  // bridge forwarding logic beyond the hash probes
	ptnetPerPkt      = 21  // ptnet port crossing (beyond model PtnetDesc)
	physPerPkt       = 36  // netmap NIC ring handling per frame
	physPerByteMilli = 360 // 0.4 cycles/B NIC DMA/cache share
	physFixedPerPkt  = 85  // driver/IRQ bookkeeping, once per frame touching a NIC
	jitterFrac       = 0.03
)

// bridge is one two-port VALE instance (e.g. "vale0") with its learning
// table.
type bridge struct {
	ports [2]int
	mac   *l2.MACTable
}

// Switch hosts one or more VALE bridges on a single (interrupt-driven) core.
// VALE's learning bridge has no operator-facing rule table (the MAC table is
// learned, not programmed), so the Programmer surface reports
// ErrNoRuntimeRules.
type Switch struct {
	switchdef.NoRuntimeRules

	// rxScratch is the receive staging array, reused across polls: a
	// stack array handed through the DevPort interface escapes, which
	// costs one heap allocation per poll.
	rxScratch [Burst]*pkt.Buf
	// txScratch is the single-buffer transmit slice deliver reuses; ports
	// do not retain their TxBurst argument.
	txScratch [1]*pkt.Buf

	env     switchdef.Env
	ports   []switchdef.DevPort
	bridges []*bridge

	// Forwarded and Dropped count data-plane outcomes.
	Forwarded, Dropped int64
}

var info = switchdef.Info{
	Name:              "vale",
	Display:           "VALE",
	Version:           "1b5361d",
	SelfContained:     true,
	Paradigm:          "structured",
	ProcessingModel:   "RTC",
	VirtualIface:      "ptnet",
	Reprogrammability: "low",
	Languages:         "C",
	MainPurpose:       "Virtual L2 Ethernet",
	BestAt:            "VNF chaining with high workload",
	Remarks:           "Limited traffic classification and live migration capability",
	Tuning:            "Disable flow control for NIC interfaces",
	IOMode:            switchdef.InterruptMode,
}

// New returns a Switch with no bridges.
func New(env switchdef.Env) *Switch { return &Switch{env: env} }

// AddPort implements switchdef.Switch (vale-ctl -a).
func (sw *Switch) AddPort(p switchdef.DevPort) int {
	sw.ports = append(sw.ports, p)
	return len(sw.ports) - 1
}

// CrossConnect implements switchdef.Switch: a fresh two-port bridge
// (vale-ctl -a valeN:a, vale-ctl -a valeN:b). A port may belong to only
// one bridge.
func (sw *Switch) CrossConnect(a, b int) error {
	if a == b {
		return fmt.Errorf("vale: port %d bridged to itself", a)
	}
	for _, p := range []int{a, b} {
		if p < 0 || p >= len(sw.ports) {
			return fmt.Errorf("vale: no port %d", p)
		}
		for i, br := range sw.bridges {
			if br.ports[0] == p || br.ports[1] == p {
				return fmt.Errorf("vale: port %d already in bridge vale%d", p, i)
			}
		}
	}
	sw.bridges = append(sw.bridges, &bridge{ports: [2]int{a, b}, mac: l2.NewMACTable(1024)})
	return nil
}

// Poll implements switchdef.Switch: service every bridge port, forwarding
// everything pending (VALE's adaptive batching).
func (sw *Switch) Poll(now units.Time, m *cost.Meter) bool {
	did := false
	burst := &sw.rxScratch
	for _, br := range sw.bridges {
		for side, src := range br.ports {
			dev := sw.ports[src]
			n := dev.RxBurst(now, m, burst[:])
			if n == 0 {
				continue
			}
			did = true
			sw.chargeIngress(m, dev, burst[:n])
			for _, b := range burst[:n] {
				sw.forward(br, now, m, src, br.ports[1-side], b)
			}
		}
	}
	return did
}

// chargeIngress prices the NIC-side receive work for a batch. Frames with
// equal cost are charged through one batched call (same per-frame RNG draws,
// fewer meter crossings); the physical-port cost is length-dependent, so
// consecutive equal-length buffers, runs counted frame by frame, batch
// together.
func (sw *Switch) chargeIngress(m *cost.Meter, dev switchdef.DevPort, batch []*pkt.Buf) {
	if dev.Kind() != switchdef.PhysKind {
		m.ChargeNoisyBatch(ptnetPerPkt, jitterFrac, pkt.Frames(batch))
		return
	}
	for i := 0; i < len(batch); {
		l := batch[i].Len()
		frames := batch[i].Run()
		j := i + 1
		for j < len(batch) && batch[j].Len() == l {
			frames += batch[j].Run()
			j++
		}
		c := physPerPkt + physFixedPerPkt + physPerByteMilli*units.Cycles(l)/1000
		m.ChargeNoisyBatch(c, jitterFrac, frames)
		i = j
	}
}

// forward runs the frames of b through a bridge: learn, look up, and copy
// them to the other port unless their destination was learned on the port
// they came from (a hairpin, dropped). An unknown destination floods, which
// on a two-port bridge is the same delivery. The frames of a run are
// identical, so each learns and looks up alike, and the last lookup
// decides for them all.
func (sw *Switch) forward(br *bridge, now units.Time, m *cost.Meter, src, other int, b *pkt.Buf) {
	data := b.View()
	k := b.Run()
	var dst int
	var known bool
	for i := 0; i < k; i++ {
		br.mac.Learn(pkt.EthSrc(data), src, now)
		dst, known = br.mac.Lookup(pkt.EthDst(data))
	}
	m.Charge(units.Cycles(k) * (2*m.Model.HashLookup + lookupPerPkt))
	if known && dst == src {
		sw.Dropped += int64(k)
		b.Free()
		return
	}
	sw.deliver(now, m, b, other)
}

// deliver copies the frames of b into the destination port and transmits.
func (sw *Switch) deliver(now units.Time, m *cost.Meter, b *pkt.Buf, dst int) {
	dev := sw.ports[dst]
	k := units.Cycles(b.Run())
	// The VALE inter-port copy (always; this is VALE's isolation price),
	// one per frame, of a run into one buffer.
	out := sw.env.Pool.Clone(b)
	m.Charge(k * (copyBase + copyPerByteMilli*units.Cycles(b.Len())/1000))
	b.Free()
	// Egress-side NIC work.
	if dev.Kind() == switchdef.PhysKind {
		m.Charge(k * (physPerPkt + physPerByteMilli*units.Cycles(out.Len())/1000))
	} else {
		m.Charge(k * ptnetPerPkt)
	}
	sw.txScratch[0] = out
	sent := dev.TxBurst(now, m, sw.txScratch[:])
	sw.Forwarded += int64(sent)
	sw.Dropped += int64(k) - int64(sent)
}

func init() {
	switchdef.Register(info, func(env switchdef.Env) switchdef.Switch { return New(env) })
}
