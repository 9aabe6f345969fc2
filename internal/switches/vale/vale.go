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
// A Switch hosts multiple VALE bridge instances (vale0, vale1, ...) — the
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

// Bridge is one VALE instance (e.g. "vale0").
type Bridge struct {
	Name  string
	ports []int
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
	// txScratch is the single-frame transmit slice deliver reuses; ports
	// do not retain their TxBurst argument.
	txScratch [1]*pkt.Buf

	env     switchdef.Env
	ports   []switchdef.DevPort
	bridges []*Bridge

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

// Info implements switchdef.Switch.
func (sw *Switch) Info() switchdef.Info { return info }

// AddPort implements switchdef.Switch (vale-ctl -a).
func (sw *Switch) AddPort(p switchdef.DevPort) int {
	sw.ports = append(sw.ports, p)
	return len(sw.ports) - 1
}

// NewBridge creates a VALE instance and attaches the given ports to it
// (vale-ctl -a valeN:port). A port may belong to only one bridge.
func (sw *Switch) NewBridge(name string, ports ...int) (*Bridge, error) {
	for _, p := range ports {
		if p < 0 || p >= len(sw.ports) {
			return nil, fmt.Errorf("vale: no port %d", p)
		}
		for _, br := range sw.bridges {
			for _, q := range br.ports {
				if q == p {
					return nil, fmt.Errorf("vale: port %d already in bridge %s", p, br.Name)
				}
			}
		}
	}
	br := &Bridge{Name: name, ports: append([]int(nil), ports...), mac: l2.NewMACTable(1024, 0)}
	sw.bridges = append(sw.bridges, br)
	return br, nil
}

// CrossConnect implements switchdef.Switch: a fresh two-port bridge. The
// learning/flooding bridge forwards between two ports in both directions.
func (sw *Switch) CrossConnect(a, b int) error {
	_, err := sw.NewBridge(fmt.Sprintf("vale%d", len(sw.bridges)), a, b)
	return err
}

// Poll implements switchdef.Switch: service every bridge port, forwarding
// everything pending (VALE's adaptive batching).
func (sw *Switch) Poll(now units.Time, m *cost.Meter) bool {
	did := false
	burst := &sw.rxScratch
	for _, br := range sw.bridges {
		for _, src := range br.ports {
			dev := sw.ports[src]
			n := dev.RxBurst(now, m, burst[:])
			if n == 0 {
				continue
			}
			did = true
			sw.chargeIngress(m, dev, burst[:n])
			for _, b := range burst[:n] {
				sw.forward(br, now, m, src, b)
			}
		}
	}
	return did
}

// chargeIngress prices the NIC-side receive work for a batch. Frames with
// equal cost are charged through one batched call (same per-frame RNG draws,
// fewer meter crossings); the physical-port cost is length-dependent, so
// runs of equal-length frames batch together.
func (sw *Switch) chargeIngress(m *cost.Meter, dev switchdef.DevPort, batch []*pkt.Buf) {
	if dev.Kind() != switchdef.PhysKind {
		m.ChargeNoisyBatch(ptnetPerPkt, jitterFrac, len(batch))
		return
	}
	for i := 0; i < len(batch); {
		l := batch[i].Len()
		j := i + 1
		for j < len(batch) && batch[j].Len() == l {
			j++
		}
		c := physPerPkt + physFixedPerPkt + physPerByteMilli*units.Cycles(l)/1000
		m.ChargeNoisyBatch(c, jitterFrac, j-i)
		i = j
	}
}

// forward runs one frame through a bridge: learn, look up, copy, transmit.
func (sw *Switch) forward(br *Bridge, now units.Time, m *cost.Meter, src int, b *pkt.Buf) {
	data := b.View()
	br.mac.Learn(pkt.EthSrc(data), src, now)
	m.Charge(2*m.Model.HashLookup + lookupPerPkt)
	dst, known := br.mac.Lookup(pkt.EthDst(data), now)
	if known && dst != src {
		sw.deliver(br, now, m, b, dst, false)
		return
	}
	if known && dst == src {
		b.Free()
		sw.Dropped++
		return
	}
	// Flood to every other bridge port.
	targets := 0
	for _, p := range br.ports {
		if p != src {
			targets++
		}
	}
	if targets == 0 {
		b.Free()
		sw.Dropped++
		return
	}
	seen := 0
	for _, p := range br.ports {
		if p == src {
			continue
		}
		seen++
		sw.deliver(br, now, m, b, p, seen < targets)
	}
}

// deliver copies the frame into the destination port and transmits. When
// clone is true the original buffer is retained for further flooding.
func (sw *Switch) deliver(br *Bridge, now units.Time, m *cost.Meter, b *pkt.Buf, dst int, clone bool) {
	dev := sw.ports[dst]
	// The VALE inter-port copy (always; this is VALE's isolation price).
	out := sw.env.Pool.Clone(b)
	m.Charge(copyBase + copyPerByteMilli*units.Cycles(b.Len())/1000)
	if !clone {
		b.Free()
	}
	// Egress-side NIC work.
	if dev.Kind() == switchdef.PhysKind {
		m.Charge(physPerPkt + physPerByteMilli*units.Cycles(out.Len())/1000)
	} else {
		m.Charge(ptnetPerPkt)
	}
	sw.txScratch[0] = out
	if dev.TxBurst(now, m, sw.txScratch[:]) == 1 {
		sw.Forwarded++
	} else {
		sw.Dropped++
	}
}

// Bridges returns the configured VALE instances.
func (sw *Switch) Bridges() []*Bridge { return sw.bridges }

// MACTable exposes a bridge's table for tests.
func (br *Bridge) MACTable() *l2.MACTable { return br.mac }

func init() {
	switchdef.Register(info, func(env switchdef.Env) switchdef.Switch { return New(env) })
}
