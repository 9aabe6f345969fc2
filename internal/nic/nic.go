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
// it out. A queue entry is a run of k ≥ 1 identical frames arriving back to
// back (pkt.Buf.Run; a saturating generator sends its bursts that way, see
// SendRunAt): materialize judges a run's visible prefix against the ring
// arithmetically and RxBurst expands only admitted frames into buffers, so
// the receive side is O(1) per run plus O(1) per delivered frame. The TX
// occupancy window is a fixed ring of TxRing completion times, O(1) per
// frame.
//
// A port bound to a counting sink (BindSink) has no receive queue at all:
// it hands each arrival, run or frame, to the sink the moment it is sent,
// and the sink accounts for it at the poll instant it would have been
// drained. Its ring is sized so that such a poll never finds it full, so
// the frames the sink sees are exactly those a polled consumer would have
// received, and a frame never holds a buffer between the wire and the sink.
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
	// yet polled, in arrival order, as runs: an entry b stands for b.Run()
	// frames, frame i arriving at the PHY at b.Ingress + i·gap with
	// sequence number b.Seq + i, gap being the sender's wire time for the
	// length. rxq[rxHead:rxVis] is the descriptor ring the consumer
	// drains — rxCount frames, and nil where arrivals found it full;
	// rxq[rxVis:] is in flight or not yet looked at.
	rxq                    []*pkt.Buf
	rxHead, rxVis, rxCount int
	// gapLen/gap memoize the sender's wire time as wireLen/wireTime do.
	gapLen int
	gap    units.Time

	// Consumer binding: an interrupt-driven core, or the poll-mode core
	// an arrival must wake if it sleeps through empty polls.
	irq      *cpu.IRQCore
	irqArmed bool
	lastIRQ  units.Time // last scheduled fire (ITR ratchet)
	poller   *cpu.PollCore
	// sink, when set, consumes every arrival in place of the RX queue.
	sink func(b *pkt.Buf, vis, gap units.Time)

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
	return &Port{cfg: cfg, txDone: make([]units.Time, cfg.TxRing), wireLen: -1, gapLen: -1}
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
// b.Run() frames, frame i hitting the PHY at b.Ingress + i·gap (gap is 0
// for a single frame) — together with vis, the instant the first frame
// becomes visible on the descriptor ring. consume owns b and counts it as
// handed to the consumer (Stats.RxPackets). That stands in for a consumer
// draining the whole ring every interval only if such a consumer never
// finds the ring full: at most ⌊interval / w⌋ + 1 frames become visible in
// one interval, w being the peer's wire time of a 64-byte frame, the
// shortest there is. BindSink panics unless the port is connected and its
// RX ring holds ⌈interval / w⌉ + 1 frames.
func (p *Port) BindSink(interval units.Time, consume func(b *pkt.Buf, vis, gap units.Time)) {
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

// SendAt enqueues one frame for transmission at time at, which may lie
// ahead of the simulation clock: a batched generator emits a whole CBR
// burst from one scheduler step by stamping each frame with its own due
// time. The port's TX state is touched only by its sender, and every
// downstream effect (wire completion, peer arrival, interrupt) is
// timestamped from `at`, so a batch is bit-identical to one SendAt per
// scheduler event at the same instants. On success the port takes
// ownership and returns true; if the TX ring is full the frame is rejected
// (caller keeps ownership) and the drop is counted.
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

// SendRunAt enqueues n frames for transmission at time at as one run: b, a
// template-backed non-probe buffer, stands for n copies of its frame
// numbered b.Seq, b.Seq+1, ... leaving back to back. The caller guarantees
// the TX ring has room for all of them (n ≤ TxFree(at)). The port books
// exactly what n SendAt calls would — a completion time per frame, the
// wire, the counters — and the peer queues the run as one entry. (SendAt
// keeps its own copy of the booking: the compiler does not inline a shared
// helper, and a call per frame measurably slows per-frame traffic.)
func (p *Port) SendRunAt(at units.Time, b *pkt.Buf, n int) {
	if p.peer == nil {
		panic(fmt.Sprintf("nic: port %s not connected", p.cfg.Name))
	}
	if free := p.TxFree(at); n > free {
		panic(fmt.Sprintf("nic: run of %d frames on port %s with %d TX descriptors free", n, p.cfg.Name, free))
	}
	start := at + p.cfg.TxLatency
	if p.busyUntil > start {
		start = p.busyUntil
	}
	if l := b.Len(); l != p.wireLen {
		p.wireLen, p.wireTime = l, p.cfg.Rate.WireTime(l)
	}
	first := start + p.wireTime
	done, tail := first, p.txHead+p.txLen
	for i := 0; i < n; i++ {
		if tail >= len(p.txDone) {
			tail -= len(p.txDone)
		}
		p.txDone[tail] = done
		tail++
		done += p.wireTime
	}
	p.busyUntil = done - p.wireTime
	p.txLen += n
	p.Stats.TxPackets += int64(n)
	p.Stats.TxBytes += int64(n) * int64(b.Len())
	b.SetRun(n)
	p.peer.arriveRun(first, b)
}

// BusyUntil returns the time at which all queued frames will have left the
// wire — the natural pacing point for a saturating generator.
func (p *Port) BusyUntil() units.Time { return p.busyUntil }

// gapFor returns the sender's wire time for a frameLen-byte frame: the
// spacing of a run's arrivals.
func (p *Port) gapFor(frameLen int) units.Time {
	if frameLen != p.gapLen {
		p.gapLen, p.gap = frameLen, p.peer.cfg.Rate.WireTime(frameLen)
	}
	return p.gap
}

// arrive queues an inbound frame hitting the PHY at time at — its hardware
// RX timestamp; it becomes visible to the consumer after the descriptor
// path delay. A sink-bound port hands it to the sink instead.
func (p *Port) arrive(at units.Time, b *pkt.Buf) {
	b.Ingress = at
	if p.sink != nil {
		p.Stats.RxPackets++
		p.Stats.RxBytes += int64(b.Len())
		p.sink(b, at+p.cfg.RxLatency, 0)
		return
	}
	p.rxq = append(p.rxq, b)
	p.notify(at)
}

// arriveRun queues a run whose first frame hits the PHY at time at. A run
// arriving right behind a not yet judged run of the same frames extends it
// (and its buffer goes back to the pool). A sink-bound port hands the run
// to the sink instead, whole.
func (p *Port) arriveRun(at units.Time, b *pkt.Buf) {
	if p.sink != nil {
		n := int64(b.Run())
		b.Ingress = at
		p.Stats.RxPackets += n
		p.Stats.RxBytes += n * int64(b.Len())
		p.sink(b, at+p.cfg.RxLatency, p.gapFor(b.Len()))
		return
	}
	if last := len(p.rxq) - 1; last >= p.rxVis {
		if t := p.rxq[last]; b.Follows(t) && t.Ingress+units.Time(t.Run())*p.gapFor(t.Len()) == at {
			t.SetRun(t.Run() + b.Run())
			b.Free()
			p.notify(at)
			return
		}
	}
	p.arrive(at, b)
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
			gap := p.gapFor(b.Len())
			vis := min(k, int((due-b.Ingress)/gap)+1)
			adm := min(vis, p.cfg.RxRing-count)
			count += adm
			p.Stats.RxDropsFull += int64(vis - adm)
			if vis < k {
				rest := b
				if adm > 0 {
					rest = b.Twin()
					b.SetRun(adm)
					q = append(q, nil)
					copy(q[v+2:], q[v+1:])
					v++
					q[v] = rest
				}
				rest.Ingress += units.Time(vis) * gap
				rest.Seq += uint64(vis)
				rest.SetRun(k - vis)
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

// RxBurst moves up to len(out) received frames to out, returning the count.
// Ownership of returned buffers passes to the caller. It performs no cost
// accounting: the consuming device driver model charges for the burst. The
// frames of a run leave as buffers of their own, each with its own Ingress
// and Seq; a burst that fills up mid-run leaves the rest queued.
func (p *Port) RxBurst(now units.Time, out []*pkt.Buf) int {
	p.materialize(now)
	q, h, n := p.rxq, p.rxHead, 0
	for ; h < p.rxVis && n < len(out); h++ {
		b := q[h]
		if b == nil {
			continue
		}
		if k := b.Run(); k > 1 {
			gap := p.gapFor(b.Len())
			for ; k > 1 && n < len(out); k-- {
				out[n] = b.Twin()
				n++
				p.Stats.RxBytes += int64(b.Len())
				b.Ingress += gap
				b.Seq++
			}
			b.SetRun(k)
			if n == len(out) {
				break
			}
		}
		q[h] = nil
		out[n] = b
		n++
		p.Stats.RxBytes += int64(b.Len())
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
