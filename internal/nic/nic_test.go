package nic

import (
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/cpu"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/units"
)

func pair(t *testing.T, acfg, bcfg Config) (*Port, *Port) {
	t.Helper()
	acfg.RxLatency, acfg.TxLatency = NoLatency, NoLatency
	bcfg.RxLatency, bcfg.TxLatency = NoLatency, NoLatency
	a, b := NewPort(acfg), NewPort(bcfg)
	Connect(a, b)
	return a, b
}

func TestSendPacesAtLineRate(t *testing.T) {
	a, b := pair(t, Config{Name: "a"}, Config{Name: "b"})
	pool := pkt.NewPool(2048)
	// Send three 64B frames at t=0; they serialize back to back.
	for i := 0; i < 3; i++ {
		if !a.SendAt(0, pool.Get(64)) {
			t.Fatal("send failed")
		}
	}
	if want := 3 * 67200 * units.Picosecond; a.BusyUntil() != want {
		t.Fatalf("busyUntil = %v, want %v", a.BusyUntil(), want)
	}
	// At 67.2ns only the first frame has fully arrived.
	if n := b.RxPending(67200 * units.Picosecond); n != 1 {
		t.Fatalf("pending after 1 frame time = %d", n)
	}
	if n := b.RxPending(3 * 67200 * units.Picosecond); n != 3 {
		t.Fatalf("pending after 3 frame times = %d", n)
	}
}

func TestRxBurstDrains(t *testing.T) {
	a, b := pair(t, Config{}, Config{})
	pool := pkt.NewPool(2048)
	for i := 0; i < 5; i++ {
		a.SendAt(0, pool.Get(64))
	}
	out := make([]*pkt.Buf, 3)
	n := b.RxBurst(units.Microsecond, out)
	if n != 3 {
		t.Fatalf("burst = %d", n)
	}
	if out[0].Ingress != 67200*units.Picosecond {
		t.Fatalf("ingress = %v", out[0].Ingress)
	}
	if n := b.RxBurst(units.Microsecond, out); n != 2 {
		t.Fatalf("second burst = %d", n)
	}
	if b.Stats.RxPackets != 5 {
		t.Fatalf("rx packets = %d", b.Stats.RxPackets)
	}
	for _, buf := range out[:2] {
		buf.Free()
	}
}

func TestTxRingOverflow(t *testing.T) {
	a, _ := pair(t, Config{TxRing: 4}, Config{})
	pool := pkt.NewPool(2048)
	sent := 0
	for i := 0; i < 10; i++ {
		b := pool.Get(64)
		if a.SendAt(0, b) {
			sent++
		} else {
			b.Free()
		}
	}
	if sent != 4 {
		t.Fatalf("sent = %d, want ring size 4", sent)
	}
	if a.Stats.TxDropsFull != 6 {
		t.Fatalf("tx drops = %d", a.Stats.TxDropsFull)
	}
	// After the wire drains, sending succeeds again.
	if !a.SendAt(units.Millisecond, pool.Get(64)) {
		t.Fatal("send after drain failed")
	}
}

func TestRxRingOverflowDropsAndFrees(t *testing.T) {
	a, b := pair(t, Config{TxRing: 4096}, Config{RxRing: 8})
	pool := pkt.NewPool(2048)
	for i := 0; i < 20; i++ {
		a.SendAt(0, pool.Get(64))
	}
	// Materialize everything at once: only 8 fit, 12 drop.
	if n := b.RxPending(units.Millisecond); n != 8 {
		t.Fatalf("pending = %d", n)
	}
	if b.Stats.RxDropsFull != 12 {
		t.Fatalf("rx drops = %d", b.Stats.RxDropsFull)
	}
	// Dropped buffers went back to the pool: 20 live minus 12 freed.
	if pool.Live() != 8 {
		t.Fatalf("live bufs = %d", pool.Live())
	}
}

func TestHWTimestampOnProbe(t *testing.T) {
	a, b := pair(t, Config{HWTimestamp: true}, Config{})
	pool := pkt.NewPool(2048)
	probe := pool.Get(64)
	probe.Probe = true
	a.SendAt(0, probe)
	plain := pool.Get(64)
	a.SendAt(0, plain)
	if probe.TxStamp != 67200*units.Picosecond {
		t.Fatalf("probe TxStamp = %v", probe.TxStamp)
	}
	if plain.TxStamp != 0 {
		t.Fatal("non-probe frame stamped")
	}
	// A pre-stamped probe (software timestamping) is not overwritten.
	sw := pool.Get(64)
	sw.Probe = true
	sw.TxStamp = 5 * units.Nanosecond
	a.SendAt(units.Microsecond, sw)
	if sw.TxStamp != 5*units.Nanosecond {
		t.Fatal("software timestamp overwritten")
	}
	_ = b
}

func TestIRQModeration(t *testing.T) {
	s := sim.NewScheduler()
	itr := 30 * units.Microsecond
	a, b := pair(t, Config{TxRing: 4096}, Config{ITR: itr, RxRing: 4096})
	pool := pkt.NewPool(2048)

	var polled int
	m := cost.NewMeter(cost.Default(), sim.NewRNG(1))
	core := cpu.NewIRQCore(s, "irq", m, func(now units.Time, mt *cost.Meter) bool {
		out := make([]*pkt.Buf, 64)
		n := b.RxBurst(now, out)
		for _, buf := range out[:n] {
			buf.Free()
		}
		polled += n
		mt.Charge(100)
		return n > 0
	})
	b.BindIRQ(core)

	// 10 frames sent at t=0 arrive within ~0.7us; the moderated interrupt
	// fires at first-arrival + ITR and one wake handles all of them.
	for i := 0; i < 10; i++ {
		a.SendAt(0, pool.Get(64))
	}
	s.RunUntil(10 * units.Millisecond)
	if polled != 10 {
		t.Fatalf("polled = %d", polled)
	}
	if core.Wakeups != 1 {
		t.Fatalf("wakeups = %d, want 1 (moderation)", core.Wakeups)
	}
	if s.Now() < itr {
		t.Fatalf("interrupt fired before ITR: %v", s.Now())
	}
}

func TestSendUnconnectedPanics(t *testing.T) {
	p := NewPort(Config{Name: "lonely", RxLatency: NoLatency, TxLatency: NoLatency})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	p.SendAt(0, pkt.NewPool(64).Get(64))
}

func TestTxFreeAccounting(t *testing.T) {
	a, _ := pair(t, Config{TxRing: 16}, Config{})
	pool := pkt.NewPool(2048)
	if a.TxFree(0) != 16 {
		t.Fatalf("free = %d", a.TxFree(0))
	}
	for i := 0; i < 10; i++ {
		a.SendAt(0, pool.Get(64))
	}
	if a.TxFree(0) != 6 {
		t.Fatalf("free = %d", a.TxFree(0))
	}
	// 5 frames complete by 5*67.2ns.
	if got := a.TxFree(5 * 67200 * units.Picosecond); got != 11 {
		t.Fatalf("free after partial drain = %d", got)
	}
}

func TestBidirectionalIndependence(t *testing.T) {
	a, b := pair(t, Config{}, Config{})
	pool := pkt.NewPool(2048)
	a.SendAt(0, pool.Get(1024))
	b.SendAt(0, pool.Get(64))
	// Full duplex: b's 64B frame arrives at a in 67.2ns even though a's
	// 1024B frame is still serializing toward b.
	if n := a.RxPending(70 * units.Nanosecond); n != 1 {
		t.Fatalf("a pending = %d", n)
	}
	if n := b.RxPending(70 * units.Nanosecond); n != 0 {
		t.Fatalf("b pending = %d", n)
	}
}

// refRx is the receive side as it was before the single RX queue and
// before runs: every frame arrives on its own, is staged with its
// visibility time, copied into a descriptor ring by materialize, copied out
// again by RxBurst. It is kept as the reference the randomized schedules
// below hold Port to — the rule that ring occupancy is judged in arrival
// order when the consumer polls, not at PHY arrival, is the easiest thing
// in the package to move by accident, and a run must be judged and
// delivered exactly as its frames one by one would be.
type refRx struct {
	cfg Config

	staged     []refArrival
	stagedHead int
	ring       []*pkt.Buf
	ringHead   int

	irq      bool
	irqArmed bool
	lastIRQ  units.Time

	stats Counters
}

type refArrival struct {
	at, stamp units.Time
	buf       *pkt.Buf
}

func (p *refRx) scheduleIRQ(earliest units.Time) {
	if !p.irq || p.irqArmed {
		return
	}
	fire := earliest
	if t := p.lastIRQ + p.cfg.ITR; t > fire {
		fire = t
	}
	p.irqArmed = true
	p.lastIRQ = fire
}

func (p *refRx) ReArm(now units.Time) {
	if !p.irq {
		return
	}
	p.irqArmed = false
	switch {
	case len(p.ring) > p.ringHead:
		p.scheduleIRQ(now)
	case len(p.staged) > p.stagedHead:
		earliest := p.staged[p.stagedHead].at
		if earliest < now {
			earliest = now
		}
		p.scheduleIRQ(earliest)
	}
}

func (p *refRx) arrive(at units.Time, b *pkt.Buf) {
	avail := at + p.cfg.RxLatency
	p.staged = append(p.staged, refArrival{at: avail, stamp: at, buf: b})
	p.scheduleIRQ(avail)
}

func (p *refRx) materialize(now units.Time) {
	st := p.staged
	h := p.stagedHead
	for h < len(st) && st[h].at <= now {
		a := st[h]
		st[h] = refArrival{}
		h++
		if len(p.ring)-p.ringHead >= p.cfg.RxRing {
			p.stats.RxDropsFull++
			a.buf.Free()
			continue
		}
		a.buf.Ingress = a.stamp
		p.ring = append(p.ring, a.buf)
	}
	switch {
	case h == len(st):
		p.staged = st[:0]
		p.stagedHead = 0
	case h >= compactAt && h*2 >= len(st):
		p.staged = st[:copy(st, st[h:])]
		p.stagedHead = 0
	default:
		p.stagedHead = h
	}
}

func (p *refRx) RxBurst(now units.Time, out []*pkt.Buf) int {
	p.materialize(now)
	n := copy(out, p.ring[p.ringHead:])
	if n > 0 {
		for j := p.ringHead; j < p.ringHead+n; j++ {
			p.stats.RxBytes += int64(p.ring[j].Len())
			p.ring[j] = nil
		}
		p.stats.RxPackets += int64(n)
		p.ringHead += n
		switch {
		case p.ringHead == len(p.ring):
			p.ring = p.ring[:0]
			p.ringHead = 0
		case p.ringHead >= compactAt && p.ringHead*2 >= len(p.ring):
			p.ring = p.ring[:copy(p.ring, p.ring[p.ringHead:])]
			p.ringHead = 0
		}
	}
	return n
}

func (p *refRx) RxPending(now units.Time) int {
	p.materialize(now)
	return len(p.ring) - p.ringHead
}

func (p *refRx) NextRx(now units.Time) units.Time {
	switch {
	case len(p.ring) > p.ringHead:
		return now
	case len(p.staged) > p.stagedHead:
		return p.staged[p.stagedHead].at
	}
	return units.Never
}

// TestRxQueueMatchesTwoQueueReference drives Port and refRx with the same
// randomized send/poll schedules — bursty senders that park thousands of
// frames in flight, runs of random length among single frames and probes,
// pollers from line-rate-fast to milliseconds-slow, rings of 1, 8 and 512
// descriptors, polled and interrupt-bound — and requires the same frames
// with the same hardware timestamps out of every poll, the same counters,
// pending counts, idle hints and interrupt times.
func TestRxQueueMatchesTwoQueueReference(t *testing.T) {
	for _, rxRing := range []int{1, 8, 512} {
		for _, irq := range []bool{false, true} {
			for seed := uint64(1); seed <= 4; seed++ {
				name := fmt.Sprintf("ring%d/irq=%v/seed%d", rxRing, irq, seed)
				t.Run(name, func(t *testing.T) {
					st := runRxSchedule(t, rxRing, irq, seed%2 == 0, rngChoices{sim.NewRNG(seed)}, 4000)
					if st.runs == 0 || st.delivered == 0 || (rxRing < 512 && st.runDrops == 0) {
						t.Fatalf("schedule exercised too little: %+v", st)
					}
				})
			}
		}
	}
}

// FuzzPortRuns is TestRxQueueMatchesTwoQueueReference's schedule with every
// choice read from the fuzzer's bytes: the first picks a ring of 1 to 8
// descriptors, interrupt or poll binding and descriptor delays, the rest
// drive sends and polls until they run out.
func FuzzPortRuns(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0x17, 9, 0, 0x80, 0, 1, 0x40, 0, 7, 0xff, 3, 0x20, 0, 0x90, 2, 0x10})
	f.Add([]byte("runs of frames cross the NIC as one entry; polls split them"))
	// Six descriptors without delays: a run of four is judged whole at the
	// instant the wire drains, a second run of four leaves at that instant
	// and lands right behind it, and a burst finds room for only two more.
	f.Add([]byte{0x15,
		0x66, 0x68, 0x60, 0, 0x18, 0, 0x80, 0, 0, 0, 0, 0, 0xc0, 0,
		0x66, 0x68, 0, 0, 0, 0,
		0x1a, 0, 0, 0, 0x60, 0, 0x18, 0, 0x80, 0, 0, 0, 0, 0, 0xc0, 0,
		0x66, 0x68, 0, 0, 0x40, 0, 0xff, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		h := data[0]
		runRxSchedule(t, 1+int(h&7), h&8 != 0, h&16 != 0, &byteChoices{data: data[1:]}, 1000)
	})
}

// choices supplies a schedule's decisions: intn returns a value in [0, n);
// done reports that the supply has run out.
type choices interface {
	intn(n int) int
	done() bool
}

type rngChoices struct{ *sim.RNG }

func (c rngChoices) intn(n int) int { return c.Intn(n) }
func (c rngChoices) done() bool     { return false }

// byteChoices scales two input bytes into [0, n) per decision.
type byteChoices struct{ data []byte }

func (c *byteChoices) intn(n int) int {
	var v int
	for i := 0; i < 2; i++ {
		v <<= 8
		if len(c.data) > 0 {
			v |= int(c.data[0])
			c.data = c.data[1:]
		}
	}
	return v * n >> 16
}

func (c *byteChoices) done() bool { return len(c.data) == 0 }

// scheduleStats says what a schedule exercised.
type scheduleStats struct {
	runs, delivered int   // runs sent, frames delivered
	runDrops        int64 // frames dropped while runs were in flight
}

// runRxSchedule sends the frames c chooses from one port to another and
// polls them, checking the receiver against refRx after every step. Where
// the port under test gets one SendRunAt of n frames, a second sending
// port gets n SendAt calls, and refRx receives those frames one by one at
// their completion times: the TX side is held to the per-frame port, the
// RX side to the per-frame reference.
func runRxSchedule(t testing.TB, rxRing int, irq, noLatency bool, c choices, steps int) scheduleStats {
	cfg, txCfg := Config{RxRing: rxRing, ITR: 30 * units.Microsecond}, Config{TxRing: 4096}
	if noLatency {
		// Only without descriptor delays can a run land right behind one
		// the receiver has already judged.
		cfg.RxLatency, txCfg.TxLatency = NoLatency, NoLatency
	}
	tx := NewPort(txCfg)
	rx := NewPort(cfg)
	Connect(tx, rx)
	refTx := NewPort(txCfg)
	discard := NewPort(Config{RxRing: 1, RxLatency: NoLatency})
	Connect(refTx, discard)
	ref := &refRx{cfg: rx.cfg, irq: irq}
	if irq {
		m := cost.NewMeter(cost.Default(), sim.NewRNG(1))
		idle := func(units.Time, *cost.Meter) bool { return false }
		rx.BindIRQ(cpu.NewIRQCore(sim.NewScheduler(), "irq", m, idle)) // never run: only the port's own IRQ state is compared
	}
	// pool feeds the port under test, refPool refRx, txPool the per-frame
	// sender (whose frames the discard port drops).
	pool, refPool, txPool := pkt.NewPool(2048), pkt.NewPool(2048), pkt.NewPool(2048)
	tmpls := make([]*pkt.Template, 0, 4)
	for i, n := range []int{64, 64, 256, 1518} {
		spec := pkt.FrameSpec{SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2}, FrameLen: n}
		tmpls = append(tmpls, spec.Template(i))
	}

	var st scheduleStats
	var seq uint64
	var got, want [256]*pkt.Buf
	now := units.Time(0)
	check := func(what string) {
		t.Helper()
		if rx.Stats != ref.stats {
			t.Fatalf("t=%v %s: receiver counters %+v, reference %+v", now, what, rx.Stats, ref.stats)
		}
		if tx.Stats != refTx.Stats || tx.TxFree(now) != refTx.TxFree(now) || tx.BusyUntil() != refTx.BusyUntil() {
			t.Fatalf("t=%v %s: sender counters %+v free %d busy %v, per-frame sender %+v free %d busy %v", now, what,
				tx.Stats, tx.TxFree(now), tx.BusyUntil(), refTx.Stats, refTx.TxFree(now), refTx.BusyUntil())
		}
		if a, b := rx.NextRx(now), ref.NextRx(now); a != b {
			t.Fatalf("t=%v %s: NextRx %v, reference %v", now, what, a, b)
		}
		// Buffer law: one buffer per queue entry, and the entries' runs
		// hold every frame the reference holds.
		held, frames := 0, 0
		for _, b := range rx.rxq[rx.rxHead:] {
			if b != nil {
				held++
				frames += b.Run()
			}
		}
		if pool.Live() != held || frames != refPool.Live() {
			t.Fatalf("t=%v %s: %d live buffers for %d queue entries holding %d frames, reference %d frames",
				now, what, pool.Live(), held, frames, refPool.Live())
		}
		if rx.irqArmed != ref.irqArmed || rx.lastIRQ != ref.lastIRQ {
			t.Fatalf("t=%v %s: irq armed=%v fire=%v, reference armed=%v fire=%v",
				now, what, rx.irqArmed, rx.lastIRQ, ref.irqArmed, ref.lastIRQ)
		}
	}
	// perFrame sends one frame made by mk through refTx and hands refRx a
	// copy arriving at its completion time, reporting whether it was sent.
	perFrame := func(mk func(*pkt.Pool) *pkt.Buf) bool {
		b := mk(txPool)
		if !refTx.SendAt(now, b) {
			b.Free()
			return false
		}
		ref.arrive(refTx.BusyUntil(), mk(refPool))
		return true
	}
	for step := 0; step < steps && !c.done(); step++ {
		switch c.intn(10) {
		case 0: // slow poller / idle wire: up to 200 us
			now += units.Time(c.intn(200_000)) * units.Nanosecond
		case 1, 2, 3: // around a frame time
			now += units.Time(c.intn(300)) * units.Nanosecond
		case 4: // the instant the wire drains, where a saturating generator tops up
			now = max(now, tx.BusyUntil())
		default: // around a poll loop iteration
			now += units.Time(c.intn(5000)) * units.Nanosecond
		}
		if c.intn(3) > 0 {
			burst := 1 + c.intn(32)
			if c.intn(8) == 0 {
				burst = 1 + c.intn(1500) // a generator topping up its TX ring
			}
			for burst > 0 {
				tmpl := tmpls[c.intn(len(tmpls))]
				switch kind := c.intn(8); {
				case kind < 5: // a run, as much of the rest as fits
					n := min(burst, tx.TxFree(now))
					if n == 0 {
						burst = 0
						break
					}
					b := pool.Get(tmpl.Len())
					b.SetTemplate(tmpl)
					b.Seq = seq + 1
					tx.SendRunAt(now, b, n)
					for i := 0; i < n; i++ {
						seq++
						if !perFrame(func(p *pkt.Pool) *pkt.Buf {
							r := p.Get(tmpl.Len())
							r.SetTemplate(tmpl)
							r.Seq = seq
							return r
						}) {
							t.Fatalf("t=%v: per-frame sender refused frame %d of a run of %d", now, i, n)
						}
					}
					st.runs++
					burst -= n
				default: // one frame: template-backed, unwritten, or a probe
					seq++
					mk := func(p *pkt.Pool) *pkt.Buf {
						b := p.Get(tmpl.Len())
						switch kind {
						case 5:
							b.SetTemplate(tmpl)
						case 6:
							b.SetTemplate(tmpl)
							pkt.MarkProbe(b, seq, 0)
						}
						b.Seq = seq
						return b
					}
					b := mk(pool)
					sent := tx.SendAt(now, b)
					if !sent {
						b.Free()
					}
					if perFrame(mk) != sent {
						t.Fatalf("t=%v: port sent=%v, per-frame sender disagrees", now, sent)
					}
					burst--
					if !sent {
						burst = 0
					}
				}
			}
			discard.RxPending(units.Never) // free what the per-frame sender put on the wire
			check("send")
		}
		switch c.intn(4) {
		case 0:
			before := rx.Stats.RxDropsFull
			if a, b := rx.RxPending(now), ref.RxPending(now); a != b {
				t.Fatalf("t=%v: pending %d, reference %d", now, a, b)
			}
			if st.runs > 0 {
				st.runDrops += rx.Stats.RxDropsFull - before
			}
			check("pending")
		case 1, 2:
			before := rx.Stats.RxDropsFull
			max := 1 + c.intn(len(got))
			n, m := rx.RxBurst(now, got[:max]), ref.RxBurst(now, want[:max])
			if n != m {
				t.Fatalf("t=%v: burst of %d, reference %d", now, n, m)
			}
			for i := 0; i < n; i++ {
				g, w := got[i], want[i]
				if g.Seq != w.Seq || g.Ingress != w.Ingress || g.Probe != w.Probe || g.Template() != w.Template() || g.Run() != 1 {
					t.Fatalf("t=%v: frame %d of burst is (seq %d, ingress %v, probe %v, template %p, run %d), reference (seq %d, ingress %v, probe %v, template %p)",
						now, i, g.Seq, g.Ingress, g.Probe, g.Template(), g.Run(), w.Seq, w.Ingress, w.Probe, w.Template())
				}
				g.Free()
				w.Free()
			}
			if st.runs > 0 {
				st.runDrops += rx.Stats.RxDropsFull - before
			}
			st.delivered += n
			check("burst")
			if c.intn(2) == 0 { // the consumer goes back to sleep
				rx.ReArm(now)
				ref.ReArm(now)
				check("rearm")
			}
		}
	}
	return st
}

// TestNextRx: a port's idle hint is now while a frame is visible, the next
// in-flight frame's visibility (Ingress + RxLatency) otherwise, and Never
// once nothing was sent.
func TestNextRx(t *testing.T) {
	a, b := NewPort(Config{Name: "a"}), NewPort(Config{Name: "b"})
	Connect(a, b)
	if got := b.NextRx(0); got != units.Never {
		t.Fatalf("idle port: NextRx = %v, want never", got)
	}
	a.SendAt(0, pkt.NewPool(2048).Get(64))
	visible := DefaultTxLatency + 67200*units.Picosecond + DefaultRxLatency
	if got := b.NextRx(0); got != visible {
		t.Fatalf("in flight: NextRx = %v, want %v", got, visible)
	}
	if n := b.RxPending(visible); n != 1 {
		t.Fatalf("pending at visibility = %d", n)
	}
	if got := b.NextRx(visible + 1); got != visible+1 {
		t.Fatalf("visible: NextRx = %v, want now", got)
	}
	b.RxBurst(visible+1, make([]*pkt.Buf, 4))
	if got := b.NextRx(visible + 2); got != units.Never {
		t.Fatalf("drained: NextRx = %v, want never", got)
	}
}
