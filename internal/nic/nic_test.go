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
		if !a.Send(0, pool.Get(64)) {
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
		a.Send(0, pool.Get(64))
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
		if a.Send(0, b) {
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
	if !a.Send(units.Millisecond, pool.Get(64)) {
		t.Fatal("send after drain failed")
	}
}

func TestRxRingOverflowDropsAndFrees(t *testing.T) {
	a, b := pair(t, Config{TxRing: 4096}, Config{RxRing: 8})
	pool := pkt.NewPool(2048)
	for i := 0; i < 20; i++ {
		a.Send(0, pool.Get(64))
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
	a.Send(0, probe)
	plain := pool.Get(64)
	a.Send(0, plain)
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
	a.Send(units.Microsecond, sw)
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
		a.Send(0, pool.Get(64))
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
	p.Send(0, pkt.NewPool(64).Get(64))
}

func TestTxFreeAccounting(t *testing.T) {
	a, _ := pair(t, Config{TxRing: 16}, Config{})
	pool := pkt.NewPool(2048)
	if a.TxFree(0) != 16 {
		t.Fatalf("free = %d", a.TxFree(0))
	}
	for i := 0; i < 10; i++ {
		a.Send(0, pool.Get(64))
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
	a.Send(0, pool.Get(1024))
	b.Send(0, pool.Get(64))
	// Full duplex: b's 64B frame arrives at a in 67.2ns even though a's
	// 1024B frame is still serializing toward b.
	if n := a.RxPending(70 * units.Nanosecond); n != 1 {
		t.Fatalf("a pending = %d", n)
	}
	if n := b.RxPending(70 * units.Nanosecond); n != 0 {
		t.Fatalf("b pending = %d", n)
	}
}

// refRx is the receive side as it was before the single RX queue: arrivals
// staged with their visibility time, copied into a descriptor ring by
// materialize, copied out again by RxBurst. It is kept as the reference the
// randomized schedules below hold Port to — the rule that ring occupancy is
// judged in arrival order when the consumer polls, not at PHY arrival, is
// the easiest thing in the package to move by accident.
type refRx struct {
	cfg Config

	staged     []refArrival
	stagedHead int
	ring       []*pkt.Buf
	ringHead   int

	irq      bool
	irqArmed bool
	lastIRQ  units.Time

	drops int64
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
			p.drops++
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
			p.ring[j] = nil
		}
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

// TestRxQueueMatchesTwoQueueReference drives Port and refRx with the same
// randomized send/poll schedules — bursty senders that park thousands of
// frames in flight, pollers from line-rate-fast to milliseconds-slow, rings
// of 1, 8 and 512 descriptors, polled and interrupt-bound — and requires
// the same frames with the same hardware timestamps out of every poll, the
// same drops, the same pending counts and the same interrupt times.
func TestRxQueueMatchesTwoQueueReference(t *testing.T) {
	for _, rxRing := range []int{1, 8, 512} {
		for _, irq := range []bool{false, true} {
			for seed := uint64(1); seed <= 4; seed++ {
				name := fmt.Sprintf("ring%d/irq=%v/seed%d", rxRing, irq, seed)
				t.Run(name, func(t *testing.T) { runRxSchedule(t, rxRing, irq, seed) })
			}
		}
	}
}

func runRxSchedule(t *testing.T, rxRing int, irq bool, seed uint64) {
	rng := sim.NewRNG(seed)
	cfg := Config{RxRing: rxRing, ITR: 30 * units.Microsecond}
	if seed%2 == 0 {
		cfg.RxLatency = NoLatency
	}
	tx := NewPort(Config{TxRing: 4096})
	rx := NewPort(cfg)
	Connect(tx, rx)
	ref := &refRx{cfg: rx.cfg, irq: irq}
	if irq {
		m := cost.NewMeter(cost.Default(), sim.NewRNG(1))
		idle := func(units.Time, *cost.Meter) bool { return false }
		rx.BindIRQ(cpu.NewIRQCore(sim.NewScheduler(), "irq", m, idle)) // never run: only the port's own IRQ state is compared
	}
	pool, refPool := pkt.NewPool(2048), pkt.NewPool(2048)

	var seq uint64
	var got, want [256]*pkt.Buf
	now := units.Time(0)
	check := func(what string) {
		t.Helper()
		if rx.Stats.RxDropsFull != ref.drops {
			t.Fatalf("t=%v %s: drops %d, reference %d", now, what, rx.Stats.RxDropsFull, ref.drops)
		}
		if pool.Live() != refPool.Live() {
			t.Fatalf("t=%v %s: %d live buffers, reference %d", now, what, pool.Live(), refPool.Live())
		}
		if rx.irqArmed != ref.irqArmed || rx.lastIRQ != ref.lastIRQ {
			t.Fatalf("t=%v %s: irq armed=%v fire=%v, reference armed=%v fire=%v",
				now, what, rx.irqArmed, rx.lastIRQ, ref.irqArmed, ref.lastIRQ)
		}
	}
	for step := 0; step < 4000; step++ {
		switch rng.Intn(10) {
		case 0: // slow poller / idle wire: up to 200 us
			now += units.Time(rng.Intn(200_000)) * units.Nanosecond
		case 1, 2, 3: // around a frame time
			now += units.Time(rng.Intn(300)) * units.Nanosecond
		default: // around a poll loop iteration
			now += units.Time(rng.Intn(5000)) * units.Nanosecond
		}
		if rng.Intn(3) > 0 {
			burst := 1 + rng.Intn(32)
			if rng.Intn(8) == 0 {
				burst = 1 + rng.Intn(1500) // a generator topping up its TX ring
			}
			sizes := [...]int{64, 64, 256, 1518}
			for i := 0; i < burst; i++ {
				b := pool.Get(sizes[rng.Intn(len(sizes))])
				seq++
				b.Seq = seq
				if !tx.SendAt(now, b) {
					b.Free()
					break
				}
				r := refPool.Get(b.Len())
				r.Seq = seq
				ref.arrive(tx.BusyUntil(), r)
			}
			check("send")
		}
		switch rng.Intn(4) {
		case 0:
			if a, b := rx.RxPending(now), ref.RxPending(now); a != b {
				t.Fatalf("t=%v: pending %d, reference %d", now, a, b)
			}
			check("pending")
		case 1, 2:
			max := 1 + rng.Intn(len(got))
			n, m := rx.RxBurst(now, got[:max]), ref.RxBurst(now, want[:max])
			if n != m {
				t.Fatalf("t=%v: burst of %d, reference %d", now, n, m)
			}
			for i := 0; i < n; i++ {
				if got[i].Seq != want[i].Seq || got[i].Ingress != want[i].Ingress {
					t.Fatalf("t=%v: frame %d of burst is (seq %d, ingress %v), reference (seq %d, ingress %v)",
						now, i, got[i].Seq, got[i].Ingress, want[i].Seq, want[i].Ingress)
				}
				got[i].Free()
				want[i].Free()
			}
			check("burst")
			if rng.Intn(2) == 0 { // the consumer goes back to sleep
				rx.ReArm(now)
				ref.ReArm(now)
				check("rearm")
			}
		}
	}
	if rx.Stats.RxPackets == 0 || (rxRing < 512 && ref.drops == 0) {
		t.Fatalf("schedule exercised nothing: %d delivered, %d dropped", rx.Stats.RxPackets, ref.drops)
	}
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
	a.Send(0, pkt.NewPool(2048).Get(64))
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
