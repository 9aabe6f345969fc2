// Package nic models physical Ethernet ports and the wires between them.
//
// A Port paces transmission at line rate (including preamble and inter-frame
// gap), queues frames in a bounded TX ring, delivers them to the peer port
// after the serialization delay, and queues arrivals toward a bounded RX
// descriptor ring from which a consumer polls bursts. Frames that find the
// RX ring full are dropped and counted, exactly like the paper's saturated
// 82599 ports. Ports optionally timestamp frames in hardware (the Intel
// 82599 PTP feature MoonGen uses) and can deliver moderated interrupts to
// an IRQ-driven consumer (the netmap/VALE mode).
//
// A frame crosses the receive side through one queue: arrive appends it,
// materialize moves a watermark over it once it is visible, RxBurst copies
// it out. The TX occupancy window is a fixed ring of TxRing completion
// times. Both are O(1) per frame.
package nic

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/pkt"
	"repro/internal/units"
)

// Config sizes a port.
type Config struct {
	Name string
	Rate units.BitRate // line rate; defaults to 10 GbE
	// TxRing and RxRing are descriptor counts (defaults 512).
	TxRing, RxRing int
	// HWTimestamp enables PTP timestamping of probe frames.
	HWTimestamp bool
	// ITR is the interrupt throttling interval for IRQ-bound consumers:
	// interrupts fire at most once per ITR (82599-style moderation).
	ITR units.Time
	// RxLatency is the PHY→descriptor-ring delay (DMA + write-back)
	// before a received frame becomes visible to the consumer; the
	// hardware RX timestamp is taken at the PHY, before this delay.
	// TxLatency is the doorbell→wire delay on transmit.
	RxLatency, TxLatency units.Time
}

// Default PCIe/DMA descriptor path delays for a 82599-class NIC.
const (
	DefaultRxLatency = 2200 * units.Nanosecond
	DefaultTxLatency = 1300 * units.Nanosecond
)

// NoLatency disables a descriptor-path delay (Config fields treat zero as
// "use the default").
const NoLatency units.Time = -1

// Counters exposes a port's packet accounting.
type Counters struct {
	TxPackets, TxBytes int64
	TxDropsFull        int64 // frames rejected because the TX ring was full
	RxPackets, RxBytes int64 // frames handed to the consumer
	RxDropsFull        int64 // frames lost to a full RX ring
}

// compactAt is the consumed-prefix length that triggers copying the
// head-indexed RX queue back to its slice front (amortized O(1) per frame).
const compactAt = 256

// Port is one physical Ethernet port.
type Port struct {
	cfg  Config
	peer *Port

	// TX pacing state: txDone is a ring of TxRing wire-completion times,
	// the txLen queued frames starting at txHead (FIFO); busyUntil is when
	// the wire frees up.
	txDone        []units.Time
	txHead, txLen int
	busyUntil     units.Time
	// wireLen/wireTime memoize the last frame length's serialization time
	// (a 128-bit division; streams are mostly one size).
	wireLen  int
	wireTime units.Time

	// RX state: rxq[rxHead:] holds every frame sent to this port and not
	// yet polled, in arrival order, each carrying its PHY arrival time in
	// Ingress. rxq[rxHead:rxVis] is the descriptor ring the consumer
	// drains — rxCount frames, and nil where an arrival found it full;
	// rxq[rxVis:] is in flight or not yet looked at.
	rxq                    []*pkt.Buf
	rxHead, rxVis, rxCount int

	// Consumer binding: an interrupt-driven core, or the poll-mode core
	// an arrival must wake if it sleeps through empty polls.
	irq      *cpu.IRQCore
	irqArmed bool
	lastIRQ  units.Time // last scheduled fire (ITR ratchet)
	poller   *cpu.PollCore

	Stats Counters
}

// NewPort returns a disconnected port.
func NewPort(cfg Config) *Port {
	if cfg.Rate == 0 {
		cfg.Rate = units.TenGigE
	}
	if cfg.TxRing == 0 {
		cfg.TxRing = 512
	}
	if cfg.RxRing == 0 {
		cfg.RxRing = 512
	}
	if cfg.RxLatency == 0 {
		cfg.RxLatency = DefaultRxLatency
	} else if cfg.RxLatency < 0 {
		cfg.RxLatency = 0
	}
	if cfg.TxLatency == 0 {
		cfg.TxLatency = DefaultTxLatency
	} else if cfg.TxLatency < 0 {
		cfg.TxLatency = 0
	}
	return &Port{cfg: cfg, txDone: make([]units.Time, cfg.TxRing), wireLen: -1}
}

// Connect wires two ports back to back (full duplex).
func Connect(a, b *Port) {
	a.peer = b
	b.peer = a
}

// Name returns the port's configured name.
func (p *Port) Name() string { return p.cfg.Name }

// Rate returns the line rate.
func (p *Port) Rate() units.BitRate { return p.cfg.Rate }

// BindIRQ attaches an interrupt-driven consumer core. Arrivals schedule a
// throttled wake; the core re-arms the port when it goes back to sleep.
func (p *Port) BindIRQ(c *cpu.IRQCore) {
	p.irq = c
	c.AddSleeper(p.ReArm)
}

// BindPoll names the poll-mode core that drains this port: each arrival
// notifies it for the instant the frame becomes visible.
func (p *Port) BindPoll(c *cpu.PollCore) { p.poller = c }

// scheduleIRQ arms one interrupt no earlier than `earliest`, honouring the
// ITR throttle. A port keeps at most one interrupt outstanding; the
// consumer re-arms via ReArm when it finishes polling.
func (p *Port) scheduleIRQ(earliest units.Time) {
	if p.irq == nil || p.irqArmed {
		return
	}
	fire := earliest
	if t := p.lastIRQ + p.cfg.ITR; t > fire {
		fire = t
	}
	p.irqArmed = true
	p.lastIRQ = fire
	p.irq.Wake(fire)
}

// ReArm re-enables the port's interrupt after the consumer exits its poll
// loop at time now (the NAPI contract): if frames are waiting — or still
// in flight toward the descriptor ring — the next interrupt is scheduled.
func (p *Port) ReArm(now units.Time) {
	if p.irq == nil {
		return
	}
	p.irqArmed = false
	if at := p.NextRx(now); at != units.Never {
		p.scheduleIRQ(max(at, now))
	}
}

// purgeTx drops completed frames from the TX occupancy window.
func (p *Port) purgeTx(now units.Time) {
	h, n := p.txHead, p.txLen
	for n > 0 && p.txDone[h] <= now {
		n--
		if h++; h == len(p.txDone) {
			h = 0
		}
	}
	p.txHead, p.txLen = h, n
}

// TxFree returns the number of free TX descriptors at time now.
func (p *Port) TxFree(now units.Time) int {
	p.purgeTx(now)
	return len(p.txDone) - p.txLen
}

// Send enqueues one frame for transmission at time now. On success the port
// takes ownership and returns true; if the TX ring is full the frame is
// rejected (caller keeps ownership) and the drop is counted.
func (p *Port) Send(now units.Time, b *pkt.Buf) bool {
	return p.SendAt(now, b)
}

// SendAt enqueues one frame for transmission at time at, which may lie
// ahead of the simulation clock: a batched generator emits a whole CBR
// burst from one scheduler step by stamping each frame with its own due
// time. The port's TX state is touched only by its sender, and every
// downstream effect (wire completion, peer arrival, interrupt) is
// timestamped from `at`, so a batch is bit-identical to one Send per
// scheduler event at the same instants.
func (p *Port) SendAt(at units.Time, b *pkt.Buf) bool {
	if p.peer == nil {
		panic(fmt.Sprintf("nic: port %s not connected", p.cfg.Name))
	}
	p.purgeTx(at)
	if p.txLen == len(p.txDone) {
		p.Stats.TxDropsFull++
		return false
	}
	start := at + p.cfg.TxLatency
	if p.busyUntil > start {
		start = p.busyUntil
	}
	if n := b.Len(); n != p.wireLen {
		p.wireLen, p.wireTime = n, p.cfg.Rate.WireTime(n)
	}
	done := start + p.wireTime
	p.busyUntil = done
	tail := p.txHead + p.txLen
	if tail >= len(p.txDone) {
		tail -= len(p.txDone)
	}
	p.txDone[tail] = done
	p.txLen++
	p.Stats.TxPackets++
	p.Stats.TxBytes += int64(b.Len())
	if p.cfg.HWTimestamp && b.Probe && b.TxStamp == 0 {
		// The NIC stamps the probe as the frame hits the wire.
		b.TxStamp = done
	}
	p.peer.arrive(done, b)
	return true
}

// BusyUntil returns the time at which all queued frames will have left the
// wire — the natural pacing point for a saturating generator.
func (p *Port) BusyUntil() units.Time { return p.busyUntil }

// arrive queues an inbound frame hitting the PHY at time at — its hardware
// RX timestamp; it becomes visible to the consumer after the descriptor
// path delay.
func (p *Port) arrive(at units.Time, b *pkt.Buf) {
	b.Ingress = at
	p.rxq = append(p.rxq, b)
	if p.poller != nil {
		p.poller.Notify(at + p.cfg.RxLatency)
	}
	p.scheduleIRQ(at + p.cfg.RxLatency)
}

// materialize advances the visible watermark over the arrivals that
// completed by now. Ring occupancy is judged here, when the consumer looks,
// in arrival order: an arrival that finds RxRing frames waiting is dropped —
// freed, and left behind in the queue as a nil entry for RxBurst to skip.
func (p *Port) materialize(now units.Time) {
	q := p.rxq
	due := now - p.cfg.RxLatency
	v, count := p.rxVis, p.rxCount
	for ; v < len(q) && q[v].Ingress <= due; v++ {
		if count < p.cfg.RxRing {
			count++
			continue
		}
		p.Stats.RxDropsFull++
		q[v].Free()
		q[v] = nil
	}
	p.rxVis, p.rxCount = v, count
}

// RxBurst moves up to len(out) received frames to out, returning the count.
// Ownership of returned buffers passes to the caller. It performs no cost
// accounting: the consuming device driver model charges for the burst.
func (p *Port) RxBurst(now units.Time, out []*pkt.Buf) int {
	p.materialize(now)
	q, h, n := p.rxq, p.rxHead, 0
	for ; h < p.rxVis && n < len(out); h++ {
		if b := q[h]; b != nil {
			q[h] = nil
			out[n] = b
			n++
			p.Stats.RxBytes += int64(b.Len())
		}
	}
	p.Stats.RxPackets += int64(n)
	p.rxCount -= n
	switch {
	case h == len(q):
		p.rxq = q[:0]
		h, p.rxVis = 0, 0
	case h >= compactAt && h*2 >= len(q):
		p.rxq = q[:copy(q, q[h:])]
		h, p.rxVis = 0, p.rxVis-h
	}
	p.rxHead = h
	return n
}

// NextRx returns the earliest instant a poll can receive a frame: now if
// one is already visible, the next arrival's visibility time if one is in
// flight, units.Never if nothing was sent. It changes no state.
func (p *Port) NextRx(now units.Time) units.Time {
	switch {
	case p.rxCount > 0:
		return now
	case p.rxVis < len(p.rxq):
		return p.rxq[p.rxVis].Ingress + p.cfg.RxLatency
	}
	return units.Never
}

// RxPending returns how many frames are ready to be polled at time now.
func (p *Port) RxPending(now units.Time) int {
	p.materialize(now)
	return p.rxCount
}
