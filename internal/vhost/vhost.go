// Package vhost models a vhost-user virtio network device: the mechanism
// Snabb introduced and DPDK adopted for direct packet exchange between a
// user-space switch and a QEMU guest.
//
// The defining property the paper measures is its copy semantics: the host
// switch reads and writes guest memory, so every crossing of the device
// costs the host core one packet copy plus descriptor handling — the "vhost
// tax" that separates p2v/v2v/loopback results from p2p.
//
// The simulated copy is charged on every crossing; the host-side memmove is
// not. Buffers cross the device by ownership transfer — the same *pkt.Buf
// travels from switch to guest (or back) and only its metadata moves,
// except that each frame of a run (pkt.Buf.Run) takes a descriptor and a
// buffer of its own — because which Go allocation holds the bytes is not
// simulation state (see DESIGN.md §3.3 for the bit-identity argument).
package vhost

import (
	"repro/internal/cost"
	"repro/internal/cpu"
	"repro/internal/pkt"
	"repro/internal/ring"
	"repro/internal/units"
)

// Config sizes a device.
type Config struct {
	// Name labels the device; nothing reads it back.
	Name string
	// QueueLen is the vring depth (default 256, the QEMU default).
	QueueLen int
	// EnqScale and DeqScale scale the crossing costs per direction,
	// letting an independent vhost implementation price differently from
	// DPDK's (default 1.0): EnqScale prices host→guest delivery (copy into
	// guest memory plus notification), DeqScale guest→host retrieval.
	EnqScale, DeqScale float64
	// GuestNotifyDelay is the host→guest availability latency (used
	// descriptor publication + notification); the guest driver sees an
	// enqueued frame only after it elapses.
	GuestNotifyDelay units.Time
}

// DefaultGuestNotifyDelay matches a vhost-user used-ring publication plus
// guest wakeup path.
const DefaultGuestNotifyDelay = 8 * units.Microsecond

// Device is one virtio-net device with a vhost-user backend.
type Device struct {
	cfg Config

	// rxRing carries host→guest frames (the guest's receive queue);
	// txRing carries guest→host frames.
	rxRing, txRing *ring.SPSC

	// host and guest are the poll-mode cores draining txRing and rxRing,
	// notified when a frame is posted toward them (nil: nobody to wake).
	host, guest *cpu.PollCore

	// HostCopies counts data copies performed by the host core.
	HostCopies int64
}

// New returns a device with empty rings.
func New(cfg Config) *Device {
	if cfg.QueueLen == 0 {
		cfg.QueueLen = 256
	}
	if cfg.EnqScale == 0 {
		cfg.EnqScale = 1
	}
	if cfg.DeqScale == 0 {
		cfg.DeqScale = 1
	}
	if cfg.GuestNotifyDelay == 0 {
		cfg.GuestNotifyDelay = DefaultGuestNotifyDelay
	}
	return &Device{
		cfg:    cfg,
		rxRing: ring.New(cfg.QueueLen),
		txRing: ring.New(cfg.QueueLen),
	}
}

// BindHost names the poll-mode core that dequeues guest transmissions.
func (d *Device) BindHost(c *cpu.PollCore) { d.host = c }

// BindGuest names the poll-mode guest core that receives host deliveries.
func (d *Device) BindGuest(c *cpu.PollCore) { d.guest = c }

func scaleBy(c units.Cycles, s float64) units.Cycles {
	if s == 1 {
		return c
	}
	return units.Cycles(float64(c) * s)
}

// enqCost prices one host→guest crossing (copy into guest memory plus
// descriptor handling).
func (d *Device) enqCost(m *cost.Meter, frameLen int) units.Cycles {
	return scaleBy(m.Model.CopyCost(frameLen)+m.Model.VhostDesc, d.cfg.EnqScale)
}

// deqCost prices one guest→host crossing.
func (d *Device) deqCost(m *cost.Meter, frameLen int) units.Cycles {
	return scaleBy(m.Model.CopyCost(frameLen)+m.Model.VhostDesc, d.cfg.DeqScale)
}

// HostEnqueueBurst delivers a batch of frames to the guest at time now:
// the host core pays, per frame, for copying it into guest memory and
// posting a used descriptor, charged in one pass; the guest sees the
// frames after the notify delay. A run is copied frame by frame from its
// one host buffer, each frame into a descriptor of its own. The device
// takes ownership of every frame: those the full vring rejects are counted
// as drops and freed. Returns the delivered count.
func (d *Device) HostEnqueueBurst(now units.Time, m *cost.Meter, in []*pkt.Buf) int {
	avail := now + d.cfg.GuestNotifyDelay
	var total units.Cycles
	sent := 0
	for _, b := range in {
		c := d.enqCost(m, b.Len())
		b.AvailAt = avail
		n := d.rxRing.PushFrames(b)
		total += units.Cycles(n) * c
		sent += n
	}
	if total > 0 {
		m.Charge(total)
	}
	if sent > 0 && d.guest != nil {
		d.guest.Notify(avail)
	}
	d.HostCopies += int64(sent)
	return sent
}

// HostDequeueBurst takes up to len(out) guest-transmitted frames, charging
// the whole batch's per-frame crossing costs in one pass.
func (d *Device) HostDequeueBurst(m *cost.Meter, out []*pkt.Buf) int {
	n := d.txRing.DrainTo(out)
	if n == 0 {
		return 0
	}
	var total units.Cycles
	for _, g := range out[:n] {
		g.AvailAt = 0
		total += d.deqCost(m, g.Len())
	}
	m.Charge(total)
	d.HostCopies += int64(n)
	return n
}

// GuestSendBurst posts a batch of guest frames for transmission (guest
// driver side: pure descriptor work, no copy — the buffer is guest
// memory), charging descriptor work once for the batch. The device takes
// ownership of every frame: those the full vring rejects are counted as
// drops and freed. Returns the accepted count.
func (d *Device) GuestSendBurst(m *cost.Meter, in []*pkt.Buf) int {
	n := d.txRing.PushBurst(in)
	for _, b := range in[n:] {
		d.txRing.Drops++
		b.Free()
	}
	if n > 0 {
		m.Charge(units.Cycles(n) * m.Model.VhostDesc)
		if d.host != nil {
			d.host.NotifyNow()
		}
	}
	return n
}

// GuestSendSpace reports how many frames GuestSendBurst can currently
// accept without dropping.
func (d *Device) GuestSendSpace() int { return d.txRing.Free() }

// GuestRecv takes up to len(out) received frames visible at time now
// (guest driver side).
func (d *Device) GuestRecv(now units.Time, m *cost.Meter, out []*pkt.Buf) int {
	n := d.rxRing.DrainVisibleTo(now, out)
	if n > 0 {
		m.Charge(units.Cycles(n) * m.Model.VhostDesc)
	}
	return n
}

// GuestNextRx returns when GuestRecv can next take a frame: the oldest
// queued frame's AvailAt (it gates everything behind it), or units.Never.
func (d *Device) GuestNextRx() units.Time {
	if b := d.rxRing.Peek(); b != nil {
		return b.AvailAt
	}
	return units.Never
}

// HostNextRx returns when HostDequeueBurst can next take a frame: now if
// the guest posted any (they are visible at once), else units.Never.
func (d *Device) HostNextRx(now units.Time) units.Time {
	if d.txRing.Len() > 0 {
		return now
	}
	return units.Never
}

// GuestPending returns the number of frames awaiting the guest.
func (d *Device) GuestPending() int { return d.rxRing.Len() }

// HostPending returns the number of frames awaiting the host.
func (d *Device) HostPending() int { return d.txRing.Len() }

// RxDrops returns frames lost because the guest receive ring was full.
func (d *Device) RxDrops() int64 { return d.rxRing.Drops }

// TxDrops returns frames lost because the guest transmit ring was full.
func (d *Device) TxDrops() int64 { return d.txRing.Drops }
