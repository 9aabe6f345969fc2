// Package ptnet models the netmap passthrough device that VALE uses for VM
// networking: the guest maps the host's netmap rings directly, so frames
// cross the host/guest boundary with descriptor work only — no copies.
// (The price of this efficiency, as the paper notes, is weaker host/VM
// memory isolation; that trade-off is metadata here, not mechanism.)
package ptnet

import (
	"repro/internal/cost"
	"repro/internal/cpu"
	"repro/internal/pkt"
	"repro/internal/ring"
	"repro/internal/units"
)

// Config sizes a port.
type Config struct {
	Name string
	// Slots is the netmap ring depth (default 1024, netmap's default).
	Slots int
	// NotifyDelay is the doorbell-to-wakeup latency for the host-side
	// interrupt when the guest posts frames.
	NotifyDelay units.Time
}

// Port is one ptnet device: a pair of shared netmap rings.
type Port struct {
	cfg Config

	toGuest, toHost *ring.SPSC

	hostIRQ  *cpu.IRQCore
	irqArmed bool
	// guest is the poll-mode guest core draining toGuest, notified when the
	// host posts frames (nil: nobody to wake). The host direction's
	// notification is the doorbell above.
	guest *cpu.PollCore
}

// New returns an empty ptnet port.
func New(cfg Config) *Port {
	if cfg.Slots == 0 {
		cfg.Slots = 1024
	}
	return &Port{
		cfg:     cfg,
		toGuest: ring.New(cfg.Slots),
		toHost:  ring.New(cfg.Slots),
	}
}

// Name returns the port name.
func (p *Port) Name() string { return p.cfg.Name }

// BindHostIRQ makes guest transmissions wake the (interrupt-driven) host
// core after the notify delay; the core re-arms the doorbell when it goes
// back to sleep.
func (p *Port) BindHostIRQ(c *cpu.IRQCore) {
	p.hostIRQ = c
	c.AddSleeper(p.ReArm)
}

// BindGuest names the poll-mode guest core that receives host frames.
func (p *Port) BindGuest(c *cpu.PollCore) { p.guest = c }

func (p *Port) notify(now units.Time) {
	if p.hostIRQ == nil || p.irqArmed {
		return
	}
	p.irqArmed = true
	p.hostIRQ.Wake(now + p.cfg.NotifyDelay)
}

// ReArm re-enables the host-side doorbell after the host exits its poll
// loop, re-firing immediately if guest frames are already waiting.
func (p *Port) ReArm(now units.Time) {
	if p.hostIRQ == nil {
		return
	}
	p.irqArmed = false
	if p.toHost.Len() > 0 {
		p.notify(now)
	}
}

// HostSendBurst passes a batch of frames to the guest, zero-copy, charging
// descriptor work once. The port takes ownership of every frame: those the
// full ring rejects are counted as drops and freed. Returns the accepted
// count.
func (p *Port) HostSendBurst(m *cost.Meter, in []*pkt.Buf) int {
	n := p.toGuest.PushBurst(in)
	for _, b := range in[n:] {
		p.toGuest.Drops++
		b.Free()
	}
	if n > 0 {
		m.Charge(units.Cycles(n) * m.Model.PtnetDesc)
		if p.guest != nil {
			p.guest.NotifyNow()
		}
	}
	return n
}

// HostRecv takes up to len(out) guest-transmitted frames, zero-copy.
func (p *Port) HostRecv(m *cost.Meter, out []*pkt.Buf) int {
	n := p.toHost.DrainTo(out)
	if n > 0 {
		m.Charge(units.Cycles(n) * m.Model.PtnetDesc)
	}
	return n
}

// GuestSendBurst posts a batch of frames toward the host at time now,
// charging descriptor work once and ringing the doorbell once (the notify
// is level-triggered, so one ring per burst is all a frame-by-frame post
// would ring either). The port takes ownership of every frame: those the
// full ring rejects are counted as drops and freed. Returns the accepted
// count.
func (p *Port) GuestSendBurst(now units.Time, m *cost.Meter, in []*pkt.Buf) int {
	n := p.toHost.PushBurst(in)
	for _, b := range in[n:] {
		p.toHost.Drops++
		b.Free()
	}
	if n > 0 {
		m.Charge(units.Cycles(n) * m.Model.PtnetDesc)
		p.notify(now)
	}
	return n
}

// GuestSendSpace reports how many frames GuestSendBurst can currently
// accept without dropping.
func (p *Port) GuestSendSpace() int { return p.toHost.Free() }

// GuestRecv takes up to len(out) frames from the host.
func (p *Port) GuestRecv(m *cost.Meter, out []*pkt.Buf) int {
	n := p.toGuest.DrainTo(out)
	if n > 0 {
		m.Charge(units.Cycles(n) * m.Model.PtnetDesc)
	}
	return n
}

// GuestNextRx returns when GuestRecv can next take a frame: now if the
// host posted any (zero-copy rings are visible at once), else units.Never.
func (p *Port) GuestNextRx(now units.Time) units.Time {
	if p.toGuest.Len() > 0 {
		return now
	}
	return units.Never
}

// HostNextRx is GuestNextRx for the host side.
func (p *Port) HostNextRx(now units.Time) units.Time {
	if p.toHost.Len() > 0 {
		return now
	}
	return units.Never
}

// GuestPending returns frames awaiting the guest.
func (p *Port) GuestPending() int { return p.toGuest.Len() }

// HostPending returns frames awaiting the host.
func (p *Port) HostPending() int { return p.toHost.Len() }

// Drops returns frames lost to full rings in either direction.
func (p *Port) Drops() int64 { return p.toGuest.Drops + p.toHost.Drops }
