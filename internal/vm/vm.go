// Package vm models the guest side of the testbed: QEMU virtual machines
// hosting VNFs. Each VNF app runs on its own guest core (the paper gives
// every VM four cores; the SUT core is never shared with guests), driving
// guest-side network interfaces — virtio ring endpoints for vhost-user
// switches or ptnet endpoints for VALE.
//
// The packaged VNFs mirror the paper's:
//
//   - L2Fwd: the DPDK l2fwd sample application used inside chain VMs. It
//     cross-connects two interfaces, rewrites MAC addresses, and transmits
//     in strict 32-packet batches with a drain timeout — the behaviour
//     behind the paper's finding that 0.10·R⁺ latency exceeds 0.50·R⁺
//     latency everywhere except VALE.
//   - Generator: MoonGen/pkt-gen in a guest: paced synthetic traffic with
//     optional software timestamping for v2v latency runs.
//   - Monitor: FloWatcher-DPDK/pkt-gen in RX mode: a counting sink with
//     negligible overhead.
//   - ValeFwd: a guest VALE instance cross-connecting two ptnet ports
//     (the loopback VNF used with the VALE SUT).
package vm

import (
	"repro/internal/cost"
	"repro/internal/pkt"
	"repro/internal/ptnet"
	"repro/internal/units"
	"repro/internal/vhost"
)

// NetIf is a guest-side network interface.
type NetIf interface {
	Name() string
	// SendBurst posts a batch toward the host, charging descriptor work
	// once; the device takes ownership of every frame, and those it
	// rejects are freed and counted as device drops. Returns the accepted
	// count.
	SendBurst(now units.Time, m *cost.Meter, in []*pkt.Buf) int
	// SendSpace reports how many frames SendBurst can currently accept.
	SendSpace() int
	// Recv takes up to len(out) frames from the host.
	Recv(now units.Time, m *cost.Meter, out []*pkt.Buf) int
	// NextRx returns the earliest instant at or after which Recv can take
	// a frame (now or earlier if one is waiting, units.Never if none is
	// queued): the input half of a guest app's cpu.Waiter hint.
	NextRx(now units.Time) units.Time
}

// VirtioIf is the guest side of a vhost-user device.
type VirtioIf struct {
	Dev *vhost.Device
}

// Name implements NetIf.
func (v *VirtioIf) Name() string { return v.Dev.Name() }

// SendBurst implements NetIf.
func (v *VirtioIf) SendBurst(now units.Time, m *cost.Meter, in []*pkt.Buf) int {
	return v.Dev.GuestSendBurst(m, in)
}

// SendSpace implements NetIf.
func (v *VirtioIf) SendSpace() int { return v.Dev.GuestSendSpace() }

// Recv implements NetIf.
func (v *VirtioIf) Recv(now units.Time, m *cost.Meter, out []*pkt.Buf) int {
	return v.Dev.GuestRecv(now, m, out)
}

// NextRx implements NetIf.
func (v *VirtioIf) NextRx(now units.Time) units.Time { return v.Dev.GuestNextRx() }

// PtnetIf is the guest side of a ptnet device.
type PtnetIf struct {
	Dev *ptnet.Port
}

// Name implements NetIf.
func (p *PtnetIf) Name() string { return p.Dev.Name() }

// SendBurst implements NetIf.
func (p *PtnetIf) SendBurst(now units.Time, m *cost.Meter, in []*pkt.Buf) int {
	return p.Dev.GuestSendBurst(now, m, in)
}

// SendSpace implements NetIf.
func (p *PtnetIf) SendSpace() int { return p.Dev.GuestSendSpace() }

// Recv implements NetIf.
func (p *PtnetIf) Recv(now units.Time, m *cost.Meter, out []*pkt.Buf) int {
	return p.Dev.GuestRecv(m, out)
}

// NextRx implements NetIf.
func (p *PtnetIf) NextRx(now units.Time) units.Time { return p.Dev.GuestNextRx(now) }
