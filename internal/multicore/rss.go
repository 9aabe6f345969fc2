package multicore

import (
	"repro/internal/cost"
	"repro/internal/nic"
	"repro/internal/pkt"
	"repro/internal/ring"
	"repro/internal/switches/switchdef"
	"repro/internal/units"
)

// rssViews builds the per-core views of one port under RSS dispatch.
//
// Under PolicyFlowHash a physical port is demuxed into one hardware queue
// per core: the NIC hashes each flow onto a queue — for free, it is
// hardware — and core j owns queue j, paying the usual PMD receive prices
// when it drains it. Every other port (each port under PolicyRoundRobin,
// and guest interfaces under either policy) goes whole to one owner core.
// Non-owning cores get a transmit-only passthrough, since any core's
// instance may need to forward to any port.
func (f *Fleet) rssViews(idx int, p switchdef.DevPort) []switchdef.DevPort {
	views := make([]switchdef.DevPort, f.opt.Cores)
	if pp, ok := p.(*switchdef.PhysPort); ok && !pp.Unpriced && f.opt.Policy == PolicyFlowHash {
		d := newDemux(pp.Port, f.opt.Cores, f.opt.QueueCap)
		f.demuxes = append(f.demuxes, d)
		f.rxOwner = append(f.rxOwner, -1)
		for k := range views {
			views[k] = f.wrapRemote(k, &rssQueuePort{phys: pp, d: d, queue: k})
		}
		return views
	}
	var owner int
	if f.opt.Policy == PolicyFlowHash && p.Kind() != switchdef.PhysKind {
		owner = f.guestOrdinal % f.opt.Cores
		f.guestOrdinal++
	} else {
		owner = f.srcOrdinal % f.opt.Cores
		f.srcOrdinal++
	}
	f.rxOwner = append(f.rxOwner, owner)
	for k := range views {
		if k == owner {
			views[k] = f.wrapRemote(k, p)
		} else {
			views[k] = f.wrapRemote(k, &txOnlyPort{inner: p})
		}
	}
	return views
}

// wrapRemote adds the cross-socket access tax when core k does not live
// on the device's home socket (devices and packet memory sit on socket 0,
// the paper's Fig. 3 placement).
func (f *Fleet) wrapRemote(k int, p switchdef.DevPort) switchdef.DevPort {
	if !f.opt.NUMA.Remote(k, 0) {
		return p
	}
	return &remotePort{inner: p}
}

// txOnlyPort is a non-owning core's view of a port: transmit passes
// through to the device, receive always comes up empty (the owner core
// polls it), at no cost — real PMDs do not poll queues they do not own.
type txOnlyPort struct {
	inner switchdef.DevPort
}

func (p *txOnlyPort) Kind() switchdef.PortKind { return p.inner.Kind() }

func (p *txOnlyPort) RxBurst(now units.Time, m *cost.Meter, out []*pkt.Buf) int { return 0 }

func (p *txOnlyPort) TxBurst(now units.Time, m *cost.Meter, in []*pkt.Buf) int {
	return p.inner.TxBurst(now, m, in)
}

// NextRx implements switchdef.DevPort. Fleet cores never sleep, so every
// per-core view answers "now" rather than a hint nothing reads.
func (p *txOnlyPort) NextRx(now units.Time) units.Time { return now }

// remotePort charges the NUMA remote-access tax per frame on top of the
// wrapped view's own prices: descriptor and payload touches cross the
// socket interconnect.
type remotePort struct {
	inner switchdef.DevPort
}

func (p *remotePort) Kind() switchdef.PortKind { return p.inner.Kind() }

func (p *remotePort) RxBurst(now units.Time, m *cost.Meter, out []*pkt.Buf) int {
	n := p.inner.RxBurst(now, m, out)
	for _, b := range out[:n] {
		m.Charge(units.Cycles(b.Run()) * m.Model.RemoteCost(b.Len()))
	}
	return n
}

func (p *remotePort) TxBurst(now units.Time, m *cost.Meter, in []*pkt.Buf) int {
	for _, b := range in {
		m.Charge(units.Cycles(b.Run()) * m.Model.RemoteCost(b.Len()))
	}
	return p.inner.TxBurst(now, m, in)
}

func (p *remotePort) NextRx(now units.Time) units.Time { return now }

// demux models a multi-queue NIC: arriving frames are hashed onto
// per-queue rings by the hardware (free), and queue k is drained by core
// k at the usual PMD prices. A full queue drops, as a real NIC queue
// would.
type demux struct {
	port   *nic.Port
	queues []*ring.SPSC

	scratch [scratchLen]*pkt.Buf
}

func newDemux(port *nic.Port, nq, qcap int) *demux {
	d := &demux{port: port}
	for i := 0; i < nq; i++ {
		d.queues = append(d.queues, ring.New(qcap))
	}
	return d
}

// pump moves every frame pending on the wire at `now` into its queue.
// Whichever owner core polls first does the (free) classification for
// all queues — the simulation's stand-in for the NIC doing it on arrival.
// A run is hashed once, its frames hashing alike, and steered whole to
// one queue, which holds a frame per slot.
func (d *demux) pump(now units.Time) {
	for {
		n := d.port.RxBurst(now, d.scratch[:])
		frames := 0
		for _, b := range d.scratch[:n] {
			frames += b.Run()
			d.queues[flowHash(b)%uint64(len(d.queues))].PushFrames(b)
		}
		if frames < len(d.scratch) {
			return
		}
	}
}

// flowHash is FNV-1a over the flow identity: Ethernet addresses plus the
// IPv4 source/destination and L4 ports when the frame is long enough to
// carry them — the 5-tuple-ish hash every RSS implementation uses.
func flowHash(b *pkt.Buf) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(bs []byte) {
		for _, c := range bs {
			h ^= uint64(c)
			h *= prime
		}
	}
	v := b.View()
	if len(v) >= 38 {
		mix(v[0:12])  // dst+src MAC
		mix(v[26:38]) // IPv4 src/dst + L4 ports
	} else {
		mix(v)
	}
	return h
}

// rssQueuePort is a core's view of its share of a demuxed physical
// port: receive drains the core's own hardware queue, priced exactly
// like the PMD path (fixed burst cost plus per-frame descriptor and DMA
// work); transmit passes through to the shared port.
type rssQueuePort struct {
	phys  *switchdef.PhysPort
	d     *demux
	queue int
}

func (p *rssQueuePort) Kind() switchdef.PortKind { return switchdef.PhysKind }

func (p *rssQueuePort) RxBurst(now units.Time, m *cost.Meter, out []*pkt.Buf) int {
	p.d.pump(now)
	m.Charge(m.Model.RxBurst)
	n := p.d.queues[p.queue].DrainTo(out)
	for _, b := range out[:n] {
		m.Charge(m.Model.RxPkt + m.Model.DMAPerByteMilli*units.Cycles(b.Len())/1000)
	}
	return n
}

func (p *rssQueuePort) TxBurst(now units.Time, m *cost.Meter, in []*pkt.Buf) int {
	return p.phys.TxBurst(now, m, in)
}

func (p *rssQueuePort) NextRx(now units.Time) units.Time { return now }
