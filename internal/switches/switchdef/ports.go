package switchdef

import (
	"repro/internal/cost"
	"repro/internal/nic"
	"repro/internal/pkt"
	"repro/internal/ptnet"
	"repro/internal/units"
	"repro/internal/vhost"
)

// PhysPort adapts a physical NIC port to the DevPort interface, pricing I/O
// like a DPDK poll-mode driver. Setting Unpriced makes the adapter charge
// nothing, for switches (VALE/netmap) that price NIC I/O in their own data
// plane instead.
type PhysPort struct {
	Port     *nic.Port
	Unpriced bool
	// Queues is the hardware receive queue count (0 or 1 = single
	// queue). Multi-core RSS dispatch spreads a multi-queue port's
	// flows across its queues; the single-core data plane ignores it.
	Queues int
}

// Kind implements DevPort.
func (p *PhysPort) Kind() PortKind { return PhysKind }

// RxBurst implements DevPort. A run is priced as the frames it stands
// for.
func (p *PhysPort) RxBurst(now units.Time, m *cost.Meter, out []*pkt.Buf) int {
	n := p.Port.RxBurst(now, out)
	if !p.Unpriced {
		m.Charge(m.Model.RxBurst)
		for _, b := range out[:n] {
			m.Charge(units.Cycles(b.Run()) * (m.Model.RxPkt + m.Model.DMAPerByteMilli*units.Cycles(b.Len())/1000))
		}
	}
	return n
}

// TxBurst implements DevPort: each buffer, run or frame, leaves in one
// nic.Port.SendRunAt, and the frames the TX ring refuses are dropped.
func (p *PhysPort) TxBurst(now units.Time, m *cost.Meter, in []*pkt.Buf) int {
	if !p.Unpriced && len(in) > 0 {
		m.Charge(m.Model.TxBurst)
	}
	sent := 0
	for _, b := range in {
		if !p.Unpriced {
			m.Charge(units.Cycles(b.Run()) * (m.Model.TxPkt + m.Model.DMAPerByteMilli*units.Cycles(b.Len())/1000))
		}
		n := p.Port.SendRunAt(now, b)
		if n == 0 {
			b.Free()
		}
		sent += n
	}
	return sent
}

// NextRx implements DevPort.
func (p *PhysPort) NextRx(now units.Time) units.Time { return p.Port.NextRx(now) }

// VhostPort adapts the host side of a vhost-user device to DevPort. The
// crossing costs (copy + descriptor handling) are charged by the vhost
// device itself.
type VhostPort struct {
	Dev *vhost.Device
}

// Kind implements DevPort.
func (p *VhostPort) Kind() PortKind { return VhostKind }

// RxBurst implements DevPort.
func (p *VhostPort) RxBurst(now units.Time, m *cost.Meter, out []*pkt.Buf) int {
	return p.Dev.HostDequeueBurst(m, out)
}

// TxBurst implements DevPort.
func (p *VhostPort) TxBurst(now units.Time, m *cost.Meter, in []*pkt.Buf) int {
	return p.Dev.HostEnqueueBurst(now, m, in)
}

// NextRx implements DevPort.
func (p *VhostPort) NextRx(now units.Time) units.Time { return p.Dev.HostNextRx(now) }

// PtnetPort adapts the host side of a ptnet device to DevPort (zero-copy).
type PtnetPort struct {
	Dev *ptnet.Port
}

// Kind implements DevPort.
func (p *PtnetPort) Kind() PortKind { return PtnetKind }

// RxBurst implements DevPort.
func (p *PtnetPort) RxBurst(now units.Time, m *cost.Meter, out []*pkt.Buf) int {
	return p.Dev.HostRecv(m, out)
}

// TxBurst implements DevPort.
func (p *PtnetPort) TxBurst(now units.Time, m *cost.Meter, in []*pkt.Buf) int {
	return p.Dev.HostSendBurst(m, in)
}

// NextRx implements DevPort.
func (p *PtnetPort) NextRx(now units.Time) units.Time { return p.Dev.HostNextRx(now) }
