package vm

import (
	"repro/internal/cost"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tgen"
	"repro/internal/units"
)

// Generator is MoonGen or pkt-gen running inside a guest, transmitting on
// one guest interface. MoonGen emulates a port profile, so VirtualRate
// caps its offered load (the paper's v2v runs show virtio switches capped
// near 10 Gbps at large frames for exactly this reason); pkt-gen over
// ptnet has no such profile and runs unlimited (VirtualRate = 0 — how the
// paper's VALE v2v exceeds 10 Gbps).
type Generator struct {
	If   NetIf
	Pool *pkt.Pool
	Spec pkt.FrameSpec
	// VirtualRate caps the offered load (0 = unlimited).
	VirtualRate units.BitRate
	// ProbeEvery injects software-timestamped probes (0 = none).
	ProbeEvery units.Time

	sched *sim.Scheduler
	task  *sim.Task
	meter *cost.Meter

	seq       uint64
	nextProbe units.Time
	nextDue   units.Time
	tmpl      *pkt.Template           // Spec's frame image, from tgen's store
	scratch   [guestGenBurst]*pkt.Buf // burst staging, reused every step

	// Sent counts emitted frames.
	Sent int64
}

// guestGenPerPkt is the per-frame generation cost on the guest core, and
// guestGenBurst the frames it stages per step.
const (
	guestGenPerPkt = 30
	guestGenBurst  = 32
)

// StartGenerator registers and starts the guest generator on its own guest
// core at time at.
func StartGenerator(s *sim.Scheduler, name string, g *Generator, m *cost.Meter, at units.Time) *Generator {
	g.sched = s
	g.meter = m
	g.tmpl = tgen.Templates(g.Spec, 1)[0]
	g.task = s.Register(name, g)
	g.nextDue = at
	g.nextProbe = at + g.ProbeEvery
	s.WakeAt(g.task, at)
	return g
}

// makeFrame builds one template-backed frame and charges the per-frame
// generation cost (charged whether or not the send lands — the guest core
// did the work either way).
func (g *Generator) makeFrame(now units.Time) *pkt.Buf {
	b := g.Pool.Get(g.Spec.FrameLen)
	b.SetTemplate(g.tmpl)
	g.seq++
	b.Seq = g.seq
	if g.ProbeEvery > 0 && now >= g.nextProbe {
		pkt.MarkProbe(b, g.seq, now) // software timestamp
		g.nextProbe = now + g.ProbeEvery
	}
	g.meter.Charge(guestGenPerPkt)
	return b
}

// Step implements sim.Actor.
func (g *Generator) Step(now units.Time) (units.Time, bool) {
	burst := guestGenBurst
	if g.VirtualRate > 0 && g.ProbeEvery > 0 {
		// Latency runs pace frames individually (MoonGen CBR).
		burst = 1
	}
	// Stage what the device can take plus, when that is short of a
	// burst, one frame more: a frame-by-frame send loop generates one
	// frame into the full ring before it notices, paying the generation
	// cost and losing the frame to a ring drop (SendBurst counts and frees
	// it).
	toSend := min(burst, g.If.SendSpace()+1)
	for i := 0; i < toSend; i++ {
		g.scratch[i] = g.makeFrame(now)
	}
	sent := g.If.SendBurst(now, g.meter, g.scratch[:toSend])
	g.Sent += int64(sent)
	elapsed := g.meter.Drain()
	if g.VirtualRate > 0 {
		g.nextDue += units.Time(int64(g.VirtualRate.WireTime(g.Spec.FrameLen)) * int64(burst))
		if g.nextDue <= now {
			g.nextDue = now + units.Nanosecond
		}
		return g.nextDue, true
	}
	// Unlimited: pace by the CPU cost of generating, or back off briefly
	// when the ring is full.
	next := now + elapsed
	if sent == 0 {
		next = now + 500*units.Nanosecond
	}
	if next <= now {
		next = now + units.Nanosecond
	}
	return next, true
}

// Monitor is FloWatcher-DPDK or pkt-gen in RX mode: a guest-side counting
// sink that also resolves software-timestamped probes (v2v latency). The
// paper selected these tools because their overhead is negligible; the
// model charges only the interface descriptor costs.
type Monitor struct {
	If NetIf
	// SWStampNoise adds uniform measurement noise to software-timestamped
	// RTTs, reflecting MoonGen's note that software timestamping is less
	// accurate than NIC hardware support.
	SWStampNoise units.Time
	RNG          *sim.RNG

	// Rx counts consumed frames; Hist collects probe RTTs.
	Rx   stats.Counter
	Hist stats.Histogram
	// Capture, when set, observes every consumed frame (pcap dumps).
	Capture func(at units.Time, b *pkt.Buf)

	scratch [64]*pkt.Buf // receive staging, reused across polls
}

// Poll implements cpu.PollFunc; the monitor runs on a guest core.
func (mo *Monitor) Poll(now units.Time, m *cost.Meter) bool {
	burst := &mo.scratch
	n := mo.If.Recv(now, m, burst[:])
	for _, b := range burst[:n] {
		mo.Rx.Add(1, int64(b.Len()))
		if mo.Capture != nil {
			mo.Capture(now, b)
		}
		if b.Probe && b.TxStamp > 0 {
			rtt := now - b.TxStamp
			if mo.SWStampNoise > 0 && mo.RNG != nil {
				rtt += units.Time(mo.RNG.Float64() * float64(mo.SWStampNoise))
			}
			mo.Hist.Add(rtt)
		}
		b.Free()
	}
	return n > 0
}

// NextWork implements cpu.Waiter: nothing changes until the interface has
// a frame.
func (mo *Monitor) NextWork(now units.Time) units.Time { return mo.If.NextRx(now) }
