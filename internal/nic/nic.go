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
// materialize moves a watermark over it once it is visible, RxBurst hands
// it out. A queue entry is a run of k ≥ 1 identical frames arriving back
// to back (pkt.Buf.Run; a saturating generator sends its bursts that way,
// and a switch forwards them so, see SendRunAt): materialize judges a
// run's visible prefix against the ring arithmetically and RxBurst hands
// admitted runs out whole, splitting only the run a full burst cuts, so
// the receive side is O(1) per run. The TX occupancy window is a FIFO of
// runs too, frames leaving the wire back to back: a send continuing the
// tail run extends it, and completed frames are trimmed arithmetically, so
// a backlogged wire holds one or two runs whatever its TxRing.
//
// A port bound to a counting sink (BindSink) has no receive queue at all:
// it hands each arrival, run or frame, to the sink the moment it is sent,
// and the sink accounts for it at the poll instant it would have been
// drained. Its ring is sized so that such a poll never finds it full, so
// the frames the sink sees are exactly those a polled consumer would have
// received, and a frame never holds a buffer between the wire and the sink.
//
// A receive queue's backing array outlives the port, the way a leased
// pkt.Pool outlives its cell: a port takes one from a process-wide stack
// of released backings when it first queues an arrival, and Release
// clears it and pushes it back, so the next port to queue starts with the
// capacity the last one grew instead of regrowing from nil.
package nic

import (
	"fmt"
	"sync"

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

	// TX pacing state: txq[txHead:] holds the txLen queued frames as runs
	// in completion order, in txBuf until a paced port needs more;
	// busyUntil is when the wire frees up.
	txq           []txRun
	txHead, txLen int
	busyUntil     units.Time
	// wireLen/wireTime memoize the last frame length's serialization time
	// (a 128-bit division; streams are mostly one size).
	wireLen  int
	wireTime units.Time

	// RX state: rxq[rxHead:] holds every frame sent to this port and not
	// yet polled, in arrival order, as runs: an entry b stands for b.Run()
	// frames, frame i arriving at the PHY at b.Ingress + i·b.Gap with
	// sequence number b.Seq + i. rxq[rxHead:rxVis] is the descriptor ring
	// the consumer drains — rxCount frames, and nil where arrivals found
	// it full; rxq[rxVis:] is in flight or not yet looked at.
	rxq                    []*pkt.Buf
	rxHead, rxVis, rxCount int
	// released is set by Release: the port queues nothing any more.
	released bool

	// Consumer binding: an interrupt-driven core, or the poll-mode core
	// an arrival must wake if it sleeps through empty polls.
	irq      *cpu.IRQCore
	irqArmed bool
	lastIRQ  units.Time // last scheduled fire (ITR ratchet)
	poller   *cpu.PollCore
	// sink, when set, consumes every arrival in place of the RX queue.
	sink func(b *pkt.Buf, vis units.Time)

	Stats Counters

	txBuf [4]txRun // txq's first backing array, past the hot fields
}

// txRun is n frames leaving the wire back to back, frame i completing at
// done + i·gap.
type txRun struct {
	done, gap units.Time
	n         int
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
	p := &Port{cfg: cfg, wireLen: -1}
	p.txq = p.txBuf[:0]
	return p
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

// BindSink makes consume the port's receiver in place of its RX queue: each
// arrival is handed over at once, as b with b.Ingress set — a run of
// b.Run() frames, frame i hitting the PHY at b.Ingress + i·b.Gap —
// together with vis, the instant the first frame becomes visible on the
// descriptor ring. consume owns b and counts it as handed to the consumer
// (Stats.RxPackets). That stands in for a consumer
// draining the whole ring every interval only if such a consumer never
// finds the ring full: at most ⌊interval / w⌋ + 1 frames become visible in
// one interval, w being the peer's wire time of a 64-byte frame, the
// shortest there is. BindSink panics unless the port is connected and its
// RX ring holds ⌈interval / w⌉ + 1 frames.
func (p *Port) BindSink(interval units.Time, consume func(b *pkt.Buf, vis units.Time)) {
	if p.peer == nil {
		panic(fmt.Sprintf("nic: sink bound to unconnected port %s", p.cfg.Name))
	}
	w := p.peer.cfg.Rate.WireTime(64)
	if need := int((interval+w-1)/w) + 1; p.cfg.RxRing < need {
		panic(fmt.Sprintf("nic: port %s: a sink draining every %v needs an RX ring of %d, has %d", p.cfg.Name, interval, need, p.cfg.RxRing))
	}
	p.sink = consume
}

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

// purgeTx drops completed frames from the TX occupancy window: the runs
// whose last frame is done, and the done prefix of the run after them.
func (p *Port) purgeTx(now units.Time) {
	q, h := p.txq, p.txHead
	for ; h < len(q) && q[h].done <= now; h++ {
		r := &q[h]
		if r.done+units.Time(r.n-1)*r.gap > now { // partly done
			k := (now-r.done)/r.gap + 1
			r.done += k * r.gap
			r.n -= int(k)
			p.txLen -= int(k)
			break
		}
		p.txLen -= r.n
	}
	if h > 0 && h == len(q) {
		p.txq, h = q[:0], 0
	}
	p.txHead = h
}

// TxFree returns the number of free TX descriptors at time now.
func (p *Port) TxFree(now units.Time) int {
	p.purgeTx(now)
	return p.cfg.TxRing - p.txLen
}

// SendAt enqueues the single frame b for transmission at time at, which
// may lie ahead of the simulation clock: a batched generator emits a whole
// CBR burst from one scheduler step by stamping each frame with its own
// due time. On success the port takes ownership and returns true; if the
// TX ring is full the frame is rejected (caller keeps ownership) and the
// drop is counted. It is SendRunAt for a run of one.
func (p *Port) SendAt(at units.Time, b *pkt.Buf) bool { return p.SendRunAt(at, b) > 0 }

// SendRunAt enqueues the b.Run() frames of b for transmission at time at,
// back to back, and returns how many the TX ring took: the first of them,
// as many as it has descriptors free, while the rest are counted as
// dropped (TxDropsFull) without becoming buffers. The port takes
// ownership of b, now a run of the frames it sent, unless it sent none.
// The port's TX state is touched only by its sender, and every downstream
// effect (wire completion, peer arrival, interrupt) is timestamped from
// at, so a run is bit-identical to one SendAt per frame at that instant,
// and a batch of sends to one per scheduler event at the same instants.
func (p *Port) SendRunAt(at units.Time, b *pkt.Buf) int {
	if p.peer == nil {
		panic(fmt.Sprintf("nic: port %s not connected", p.cfg.Name))
	}
	p.purgeTx(at)
	n := b.Run()
	if free := p.cfg.TxRing - p.txLen; n > free {
		p.Stats.TxDropsFull += int64(n - free)
		if free == 0 {
			return 0
		}
		n = free
		b.SetRun(n)
	}
	start := at + p.cfg.TxLatency
	if p.busyUntil > start {
		start = p.busyUntil
	}
	l := b.Len()
	if l != p.wireLen {
		p.wireLen, p.wireTime = l, p.cfg.Rate.WireTime(l)
	}
	first, w := start+p.wireTime, p.wireTime
	// Frames that wait for the wire behind the tail run, whose last frame
	// completes at busyUntil, extend it if they keep its pace.
	if t := len(p.txq) - 1; t >= 0 && start == p.busyUntil && p.txq[t].gap == w {
		p.txq[t].n += n
	} else {
		// A full slice whose first half is done is compacted, not grown.
		if q := p.txq; len(q) == cap(q) && 2*p.txHead >= len(q) {
			p.txq, p.txHead = q[:copy(q, q[p.txHead:])], 0
		}
		p.txq = append(p.txq, txRun{done: first, gap: w, n: n})
	}
	p.busyUntil = first + units.Time(n-1)*w
	p.txLen += n
	p.Stats.TxPackets += int64(n)
	p.Stats.TxBytes += int64(n) * int64(l)
	if p.cfg.HWTimestamp && b.Probe && b.TxStamp == 0 {
		// The NIC stamps the probe as the frame hits the wire.
		b.TxStamp = first
	}
	b.Gap = p.wireTime
	p.peer.arrive(first, b)
	return n
}

// BusyUntil returns the time at which all queued frames will have left the
// wire — the natural pacing point for a saturating generator.
func (p *Port) BusyUntil() units.Time { return p.busyUntil }

// arrive queues the frames of b, the first hitting the PHY at time at —
// its hardware RX timestamp; each becomes visible to the consumer after
// the descriptor path delay. A run arriving right behind a not yet judged
// run of the same frames extends it (and its buffer goes back to the
// pool). A sink-bound port hands b to the sink instead, whole.
func (p *Port) arrive(at units.Time, b *pkt.Buf) {
	b.Ingress = at
	if p.sink != nil {
		n := int64(b.Run())
		p.Stats.RxPackets += n
		p.Stats.RxBytes += n * int64(b.Len())
		p.sink(b, at+p.cfg.RxLatency)
		return
	}
	if last := len(p.rxq) - 1; b.Run() > 1 && last >= p.rxVis {
		if t := p.rxq[last]; b.Follows(t) && t.Ingress+units.Time(t.Run())*t.Gap == at {
			t.SetRun(t.Run() + b.Run())
			b.Free()
			p.notify(at)
			return
		}
	}
	if p.rxq == nil {
		p.rxq = p.leaseRxq()
	}
	p.rxq = append(p.rxq, b)
	p.notify(at)
}

// rxBacks is the process-wide stack of released RX queue backings, each
// cleared and of length 0.
var rxBacks struct {
	sync.Mutex
	s [][]*pkt.Buf
}

// leaseRxq takes the most recently released backing for the port's first
// queued arrival, or nil if there is none. A released port panics: its
// backing may already serve another port.
func (p *Port) leaseRxq() []*pkt.Buf {
	if p.released {
		panic(fmt.Sprintf("nic: arrival at released port %s", p.cfg.Name))
	}
	rxBacks.Lock()
	defer rxBacks.Unlock()
	n := len(rxBacks.s)
	if n == 0 {
		return nil
	}
	q := rxBacks.s[n-1]
	rxBacks.s[n-1] = nil
	rxBacks.s = rxBacks.s[:n-1]
	return q
}

// Release ends the port's lease of its RX queue backing: it clears the
// backing up to its capacity, so that it holds no buffer of the frames
// still queued or of compactions past, and pushes it onto the stack the
// next port's first arrival leases from. Queued frames are forgotten, not
// freed: their pools are released with them. A port that never queued
// pushes nothing, and a released port panics on an arrival to queue. Ports
// released in the reverse of the order they first queued hand each
// backing back to the same role when the next identical cell queues in
// that order.
func (p *Port) Release() {
	q := p.rxq
	p.rxq, p.rxHead, p.rxVis, p.rxCount = nil, 0, 0, 0
	p.released = true
	if cap(q) == 0 {
		return
	}
	clear(q[:cap(q)])
	rxBacks.Lock()
	rxBacks.s = append(rxBacks.s, q[:0])
	rxBacks.Unlock()
}

// notify wakes the bound consumer for a frame hitting the PHY at time at.
// A run calls it once, for its first frame: the later frames' calls could
// only ask for later times, and the scheduler keeps the earliest wake-up
// while an armed port ignores further arrivals.
func (p *Port) notify(at units.Time) {
	vis := at + p.cfg.RxLatency
	if p.poller != nil {
		p.poller.Notify(vis)
	}
	p.scheduleIRQ(vis)
}

// materialize advances the visible watermark over the arrivals that
// completed by now. Ring occupancy is judged here, when the consumer looks,
// in arrival order: an arrival that finds RxRing frames waiting is dropped —
// freed, and left behind in the queue as a nil entry for RxBurst to skip. A
// run is judged arithmetically: of its visible frames the ring admits a
// prefix, the rest is counted dropped without becoming buffers, and the
// part still in flight is split off as an entry of its own.
func (p *Port) materialize(now units.Time) {
	q := p.rxq
	due := now - p.cfg.RxLatency
	v, count := p.rxVis, p.rxCount
	for ; v < len(q) && q[v].Ingress <= due; v++ {
		b := q[v]
		if k := b.Run(); k > 1 {
			vis := min(k, int((due-b.Ingress)/b.Gap)+1)
			adm := min(vis, p.cfg.RxRing-count)
			count += adm
			p.Stats.RxDropsFull += int64(vis - adm)
			if vis < k {
				if adm > 0 {
					q = append(q, nil)
					copy(q[v+1:], q[v:])
					q[v] = b.Cut(adm)
					v++
				}
				if vis > adm {
					b.Skip(vis - adm)
				}
				break
			}
			if adm > 0 {
				b.SetRun(adm)
				continue
			}
		} else if count < p.cfg.RxRing {
			count++
			continue
		} else {
			p.Stats.RxDropsFull++
		}
		b.Free()
		q[v] = nil
	}
	p.rxq, p.rxVis, p.rxCount = q, v, count
}

// RxBurst moves received frames to out, up to len(out) frames in total,
// and returns how many buffers it filled. A run leaves as one buffer
// (pkt.Buf.Run), whole unless the burst fills up in its middle: then its
// first frames leave as a run of their own and the rest stays queued.
// Ownership of returned buffers passes to the caller. It performs no cost
// accounting: the consuming device driver model charges for the burst.
func (p *Port) RxBurst(now units.Time, out []*pkt.Buf) int {
	p.materialize(now)
	q, h, n, frames := p.rxq, p.rxHead, 0, 0
	for ; h < p.rxVis && frames < len(out); h++ {
		b := q[h]
		if b == nil {
			continue
		}
		k := b.Run()
		if room := len(out) - frames; k > room {
			out[n] = b.Cut(room)
			n++
			frames += room
			p.Stats.RxBytes += int64(room) * int64(b.Len())
			break
		}
		q[h] = nil
		out[n] = b
		n++
		frames += k
		p.Stats.RxBytes += int64(k) * int64(b.Len())
	}
	p.Stats.RxPackets += int64(frames)
	p.rxCount -= frames
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
