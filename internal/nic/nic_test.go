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

// txTimes returns the completion times of p's queued frames, its TX runs
// expanded, as of its last purge.
func txTimes(p *Port) []units.Time {
	var ts []units.Time
	for _, r := range p.txq[p.txHead:] {
		for i := 0; i < r.n; i++ {
			ts = append(ts, r.done+units.Time(i)*r.gap)
		}
	}
	return ts
}

// wantTx fails unless p, purged to now, has free descriptors, queues
// frames completing at want and holds them in runs TX runs.
func wantTx(t *testing.T, p *Port, now units.Time, free, runs int, want ...units.Time) {
	t.Helper()
	if got := p.TxFree(now); got != free {
		t.Fatalf("t=%v: TxFree = %d, want %d", now, got, free)
	}
	if got := txTimes(p); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("t=%v: TX completions %v, want %v", now, got, want)
	}
	if got := len(p.txq) - p.txHead; got != runs {
		t.Fatalf("t=%v: %d TX runs %+v, want %d", now, got, p.txq[p.txHead:], runs)
	}
}

// TestTxRunEdges pins the TX run FIFO where its arithmetic turns: a frame
// completing exactly at the instant asked about, a drain stopping inside a
// merged run, a run the full ring cuts, sends that must not merge, and a
// paced port outgrowing the runs kept inside Port and draining to empty.
func TestTxRunEdges(t *testing.T) {
	w := units.TenGigE.WireTime(64)
	run := func(pool *pkt.Pool, l, n int) *pkt.Buf {
		b := pool.Get(l)
		b.SetRun(n)
		return b
	}
	t.Run("completes at its instant", func(t *testing.T) {
		a, _ := pair(t, Config{TxRing: 16}, Config{})
		a.SendRunAt(0, run(pkt.NewPool(2048), 64, 3))
		wantTx(t, a, w-1, 13, 1, w, 2*w, 3*w)
		wantTx(t, a, w, 14, 1, 2*w, 3*w)
		wantTx(t, a, 3*w, 16, 0)
	})
	t.Run("partial drain of a merged run", func(t *testing.T) {
		a, _ := pair(t, Config{TxRing: 16}, Config{})
		pool := pkt.NewPool(2048)
		a.SendRunAt(0, run(pool, 64, 4))
		a.SendRunAt(2*w, run(pool, 64, 4)) // the wire is still busy: merges
		a.SendAt(3*w, pool.Get(64))
		wantTx(t, a, 3*w, 10, 1, 4*w, 5*w, 6*w, 7*w, 8*w, 9*w)
		wantTx(t, a, 5*w+w/2, 12, 1, 6*w, 7*w, 8*w, 9*w)
		wantTx(t, a, 5*w+w/2, 12, 1, 6*w, 7*w, 8*w, 9*w)
	})
	t.Run("cut by a full ring", func(t *testing.T) {
		a, _ := pair(t, Config{TxRing: 8}, Config{})
		pool := pkt.NewPool(2048)
		a.SendRunAt(0, run(pool, 64, 5))
		b := run(pool, 64, 5)
		if n := a.SendRunAt(0, b); n != 3 || b.Run() != 3 || a.Stats.TxDropsFull != 2 {
			t.Fatalf("sent %d as a run of %d, %d dropped; want 3, 3, 2", n, b.Run(), a.Stats.TxDropsFull)
		}
		if a.SendAt(0, pool.Get(64)) || a.Stats.TxDropsFull != 3 {
			t.Fatalf("a full ring took a frame (%d dropped)", a.Stats.TxDropsFull)
		}
		wantTx(t, a, 0, 0, 1, w, 2*w, 3*w, 4*w, 5*w, 6*w, 7*w, 8*w)
		// One frame done: one more fits, at the tail of the same run.
		if n := a.SendRunAt(w, run(pool, 64, 4)); n != 1 || a.BusyUntil() != 9*w {
			t.Fatalf("sent %d, busy until %v; want 1, %v", n, a.BusyUntil(), 9*w)
		}
		wantTx(t, a, w, 0, 1, 2*w, 3*w, 4*w, 5*w, 6*w, 7*w, 8*w, 9*w)
	})
	t.Run("a length change does not merge", func(t *testing.T) {
		a, _ := pair(t, Config{TxRing: 16}, Config{})
		pool := pkt.NewPool(2048)
		w256 := units.TenGigE.WireTime(256)
		// Behind a single frame, the next frame's start lies one wire time
		// of its own after the tail's: only the pace tells them apart.
		a.SendAt(0, pool.Get(64))
		a.SendRunAt(0, run(pool, 256, 2))
		a.SendAt(0, pool.Get(64))
		wantTx(t, a, 0, 12, 3, w, w+w256, w+2*w256, 2*w+2*w256)
		wantTx(t, a, w+w256, 14, 2, w+2*w256, 2*w+2*w256)
	})
	t.Run("CBR on an idle wire does not merge", func(t *testing.T) {
		a, b := NewPort(Config{TxRing: 16}), NewPort(Config{})
		Connect(a, b)
		pool := pkt.NewPool(2048)
		lat := DefaultTxLatency
		for i := 0; i < 3; i++ {
			a.SendAt(units.Time(i)*100*units.Nanosecond, pool.Get(64))
		}
		wantTx(t, a, 200*units.Nanosecond, 13, 3, lat+w, lat+100*units.Nanosecond+w, lat+200*units.Nanosecond+w)
		// Spaced exactly at line rate, frames leave back to back: a run.
		a.SendAt(200*units.Nanosecond+w, pool.Get(64))
		wantTx(t, a, 200*units.Nanosecond+w, 12, 3, lat+w, lat+100*units.Nanosecond+w, lat+200*units.Nanosecond+w, lat+200*units.Nanosecond+2*w)
	})
	t.Run("outgrows the inline runs and drains", func(t *testing.T) {
		a, b := NewPort(Config{TxRing: 64}), NewPort(Config{})
		Connect(a, b)
		pool := pkt.NewPool(2048)
		const frames = 3 * len(Port{}.txBuf)
		want := make([]units.Time, frames)
		for i := range want {
			at := units.Time(i) * 100 * units.Nanosecond
			want[i] = at + DefaultTxLatency + w
			a.SendAt(at, pool.Get(64))
		}
		last := units.Time(frames-1) * 100 * units.Nanosecond
		wantTx(t, a, last, 64-frames, frames, want...)
		if cap(a.txq) < frames {
			t.Fatalf("%d runs in a FIFO of capacity %d", frames, cap(a.txq))
		}
		wantTx(t, a, want[frames/2], 64-frames/2+1, frames/2-1, want[frames/2+1:]...)
		wantTx(t, a, a.BusyUntil(), 64, 0)
		if len(a.txq) != 0 || a.txHead != 0 {
			t.Fatalf("drained FIFO: len %d, head %d", len(a.txq), a.txHead)
		}
	})
}

// TestTxRingDoesNotAllocate: once warm, booking sends allocates nothing,
// neither for a saturating 4 096-deep sender topping its ring up in runs of
// 128 (which holds one or two TX runs) nor for one paced just under line
// rate, whose every frame is a run of its own and whose FIFO has grown to
// what the descriptor delay keeps in flight.
func TestTxRingDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates for itself")
	}
	w := units.TenGigE.WireTime(64)
	setup := func() (*Port, *pkt.Pool) {
		a, b := NewPort(Config{TxRing: 4096}), NewPort(Config{RxRing: 4096})
		Connect(a, b)
		b.BindSink(2*units.Microsecond, func(b *pkt.Buf, _ units.Time) { b.Free() })
		return a, pkt.NewPool(2048)
	}
	t.Run("saturating", func(t *testing.T) {
		a, pool := setup()
		now := units.Time(0)
		step := func() {
			for free := a.TxFree(now); free > 0; {
				b := pool.Get(64)
				b.SetRun(min(128, free))
				free -= a.SendRunAt(now, b)
			}
			if runs := len(a.txq) - a.txHead; runs > 2 {
				t.Fatalf("t=%v: a backlogged wire holds %d TX runs", now, runs)
			}
			now += 16 * w
		}
		for i := 0; i < 1000; i++ {
			step()
		}
		if n := testing.AllocsPerRun(1000, step); n != 0 {
			t.Fatalf("%v allocations per saturating step", n)
		}
	})
	t.Run("paced", func(t *testing.T) {
		a, pool := setup()
		gap := units.Time(float64(w) / 0.99)
		now := units.Time(0)
		step := func() {
			if !a.SendAt(now, pool.Get(64)) {
				t.Fatalf("t=%v: paced send refused", now)
			}
			now += gap
		}
		for i := 0; i < 1000; i++ {
			step()
		}
		if runs := len(a.txq) - a.txHead; runs < len(a.txBuf) {
			t.Fatalf("only %d TX runs in flight; the paced case should outgrow the inline %d", runs, len(a.txBuf))
		}
		// AllocsPerRun rounds down, so a FIFO that kept growing now and
		// then would pass it: its capacity must hold still too.
		c := cap(a.txq)
		if n := testing.AllocsPerRun(10000, step); n != 0 || cap(a.txq) != c {
			t.Fatalf("%v allocations per paced send; FIFO capacity %d → %d", n, c, cap(a.txq))
		}
	})
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

// refTx is the sending side as it was before TX runs: a ring of TxRing
// completion times, one written as each frame is sent and scanned out as
// each completes. It is kept as the reference the randomized schedules
// below hold Port's run FIFO to, frame by frame: merging frames into the
// tail run and trimming a partly completed run are arithmetic that a
// reference sharing the FIFO could not check.
type refTx struct {
	cfg       Config
	done      []units.Time
	head, n   int
	busyUntil units.Time
	stats     Counters
}

func newRefTx(cfg Config) *refTx {
	return &refTx{cfg: cfg, done: make([]units.Time, cfg.TxRing)}
}

func (p *refTx) purge(now units.Time) {
	for p.n > 0 && p.done[p.head] <= now {
		p.n--
		p.head = (p.head + 1) % len(p.done)
	}
}

func (p *refTx) TxFree(now units.Time) int {
	p.purge(now)
	return len(p.done) - p.n
}

// send transmits one frame of length l at time at, reporting whether the
// ring took it; the frame completes at busyUntil.
func (p *refTx) send(at units.Time, l int) bool {
	p.purge(at)
	if p.n == len(p.done) {
		p.stats.TxDropsFull++
		return false
	}
	start := max(at+p.cfg.TxLatency, p.busyUntil)
	p.busyUntil = start + p.cfg.Rate.WireTime(l)
	p.done[(p.head+p.n)%len(p.done)] = p.busyUntil
	p.n++
	p.stats.TxPackets++
	p.stats.TxBytes += int64(l)
	return true
}

// TestRxQueueMatchesTwoQueueReference drives Port and refRx with the same
// randomized send/poll schedules — bursty senders that park thousands of
// frames in flight, runs of random length among single frames and probes,
// pollers from line-rate-fast to milliseconds-slow, rings of 1, 8 and 512
// descriptors, polled and interrupt-bound, TX rings deep enough for every
// burst or shallow enough to cut runs — and requires the same frames with
// the same hardware timestamps out of every poll once its runs are
// expanded, the same counters, pending counts, idle hints and interrupt
// times, and on the sending side the same completion times, its runs
// expanded, and drops as refTx sending the frames one by one.
func TestRxQueueMatchesTwoQueueReference(t *testing.T) {
	for _, rxRing := range []int{1, 8, 512} {
		for _, irq := range []bool{false, true} {
			for _, leased := range []bool{false, true} {
				for seed := uint64(1); seed <= 4; seed++ {
					name := fmt.Sprintf("ring%d/irq=%v/seed%d", rxRing, irq, seed)
					if leased {
						name = fmt.Sprintf("ring%d/irq=%v/leased/seed%d", rxRing, irq, seed)
					}
					t.Run(name, func(t *testing.T) {
						shallowTx := seed > 2
						st := runRxSchedule(t, rxRing, irq, seed%2 == 0, shallowTx, leased, rngChoices{sim.NewRNG(seed)}, 4000)
						if st.runs == 0 || st.delivered == 0 || (rxRing < 512 && st.runDrops == 0) || (shallowTx && st.runTxDrops == 0) || st.txMerges == 0 {
							t.Fatalf("schedule exercised too little: %+v", st)
						}
					})
				}
			}
		}
	}
}

// FuzzPortRuns is TestRxQueueMatchesTwoQueueReference's schedule with every
// choice read from the fuzzer's bytes: the first picks an RX ring of 1 to 8
// descriptors, interrupt or poll binding, descriptor delays, a deep or
// shallow TX ring and a fresh or leased RX queue, the rest drive sends and
// polls until they run out. A port fed runs of frames, which hands them
// out as runs, must deliver, count, drop and wake exactly as the per-frame
// reference fed the frames one by one, and a run its TX ring cuts must
// book what a send per frame books.
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
		runRxSchedule(t, 1+int(h&7), h&8 != 0, h&16 != 0, h&32 != 0, h&64 != 0, &byteChoices{data: data[1:]}, 1000)
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
	runTxDrops      int   // frames of runs the full TX ring refused
	txMerges        int   // single frames that extended the tail TX run
}

// runRxSchedule sends the frames c chooses from one port to another and
// polls them, checking the receiver against refRx after every step. Where
// the port under test gets one SendRunAt of n frames, refTx gets n sends,
// and refRx receives the frames it sent one by one at their completion
// times: the TX side is held to the per-frame ring, the RX side to the
// per-frame reference. A shallow TX ring (64 descriptors) makes the sender
// refuse the tails of runs. A leased receiver queues into the backing
// releaseDirtyBacking released, not into a fresh one.
func runRxSchedule(t testing.TB, rxRing int, irq, noLatency, shallowTx, leased bool, c choices, steps int) scheduleStats {
	cfg, txCfg := Config{RxRing: rxRing, ITR: 30 * units.Microsecond}, Config{TxRing: 4096}
	if shallowTx {
		txCfg.TxRing = 64
	}
	if noLatency {
		// Only without descriptor delays can a run land right behind one
		// the receiver has already judged.
		cfg.RxLatency, txCfg.TxLatency = NoLatency, NoLatency
	}
	var dirty []*pkt.Buf // the backing rx must lease, until it has
	if leased {
		dirty = releaseDirtyBacking(t)
	}
	tx := NewPort(txCfg)
	rx := NewPort(cfg)
	Connect(tx, rx)
	if leased {
		defer func() {
			// Take the backing off the released stack again, whether rx
			// leased it or not, so that schedules pile none up there.
			rx.Release()
			NewPort(Config{}).leaseRxq()
		}()
	}
	refTx := newRefTx(tx.cfg)
	ref := &refRx{cfg: rx.cfg, irq: irq}
	if irq {
		m := cost.NewMeter(cost.Default(), sim.NewRNG(1))
		idle := func(units.Time, *cost.Meter) bool { return false }
		rx.BindIRQ(cpu.NewIRQCore(sim.NewScheduler(), "irq", m, idle)) // never run: only the port's own IRQ state is compared
	}
	// pool feeds the port under test, refPool refRx.
	pool, refPool := pkt.NewPool(2048), pkt.NewPool(2048)
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
		if dirty != nil && rx.rxq != nil {
			if &rx.rxq[:1][0] != &dirty[:1][0] {
				t.Fatalf("t=%v %s: the first arrival queued into a backing of capacity %d, not the released one of %d", now, what, cap(rx.rxq), cap(dirty))
			}
			dirty = nil
		}
		if rx.Stats != ref.stats {
			t.Fatalf("t=%v %s: receiver counters %+v, reference %+v", now, what, rx.Stats, ref.stats)
		}
		if tx.Stats != refTx.stats || tx.TxFree(now) != refTx.TxFree(now) || tx.BusyUntil() != refTx.busyUntil {
			t.Fatalf("t=%v %s: sender counters %+v free %d busy %v, per-frame sender %+v free %d busy %v", now, what,
				tx.Stats, tx.TxFree(now), tx.BusyUntil(), refTx.stats, refTx.TxFree(now), refTx.busyUntil)
		}
		// Both are purged to now: the runs, expanded, are the ring.
		i := 0
		for _, r := range tx.txq[tx.txHead:] {
			for j := 0; j < r.n; j++ {
				a := r.done + units.Time(j)*r.gap
				if i == refTx.n {
					t.Fatalf("t=%v %s: TX runs hold more frames than the per-frame ring's %d", now, what, refTx.n)
				}
				if b := refTx.done[(refTx.head+i)%len(refTx.done)]; a != b {
					t.Fatalf("t=%v %s: frame %d on the TX ring completes at %v, per-frame ring at %v", now, what, i, a, b)
				}
				i++
			}
		}
		if i != refTx.n || i != tx.txLen {
			t.Fatalf("t=%v %s: TX runs hold %d frames, txLen %d, per-frame ring %d", now, what, i, tx.txLen, refTx.n)
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
	// perFrame sends one frame of length l through refTx and hands refRx
	// the frame mk makes, arriving at its completion time, reporting
	// whether it was sent.
	perFrame := func(l int, mk func(*pkt.Pool) *pkt.Buf) bool {
		if !refTx.send(now, l) {
			return false
		}
		ref.arrive(refTx.busyUntil, mk(refPool))
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
				case kind < 5: // a run of the rest, which a full TX ring cuts
					k := burst
					b := pool.Get(tmpl.Len())
					b.SetTemplate(tmpl)
					b.Seq = seq + 1
					b.SetRun(k)
					n := tx.SendRunAt(now, b)
					if n == 0 {
						b.Free()
					}
					for i := 0; i < k; i++ {
						if sent := perFrame(tmpl.Len(), func(p *pkt.Pool) *pkt.Buf {
							r := p.Get(tmpl.Len())
							r.SetTemplate(tmpl)
							r.Seq = seq + 1 + uint64(i)
							return r
						}); sent != (i < n) {
							t.Fatalf("t=%v: run of %d sent %d frames, per-frame sender sent=%v for frame %d", now, k, n, sent, i)
						}
					}
					seq += uint64(k)
					st.runs++
					st.runTxDrops += k - n
					burst = 0
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
					} else if tx.txq[len(tx.txq)-1].n > 1 { // a frame alone would be a run of one
						st.txMerges++
					}
					if perFrame(tmpl.Len(), mk) != sent {
						t.Fatalf("t=%v: port sent=%v, per-frame sender disagrees", now, sent)
					}
					burst--
					if !sent {
						burst = 0
					}
				}
			}
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
			j := 0 // frames of the burst compared so far
			for _, g := range got[:n] {
				for i := 0; i < g.Run(); i++ {
					if j == m {
						t.Fatalf("t=%v: burst of %d buffers holds more than the reference's %d frames", now, n, m)
					}
					w := want[j]
					seq, ingress := g.Seq+uint64(i), g.Ingress+units.Time(i)*g.Gap
					if seq != w.Seq || ingress != w.Ingress || g.Probe != w.Probe || g.Template() != w.Template() {
						t.Fatalf("t=%v: frame %d of burst is (seq %d, ingress %v, probe %v, template %p), reference (seq %d, ingress %v, probe %v, template %p)",
							now, j, seq, ingress, g.Probe, g.Template(), w.Seq, w.Ingress, w.Probe, w.Template())
					}
					w.Free()
					j++
				}
				g.Free()
			}
			if j != m {
				t.Fatalf("t=%v: burst of %d frames, reference %d", now, j, m)
			}
			if st.runs > 0 {
				st.runDrops += rx.Stats.RxDropsFull - before
			}
			st.delivered += m
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

// releaseDirtyBacking queues 6 000 frames on a port, polls 4 000 of them,
// so that RxBurst compacts the queue and leaves copies of the 2 000 still
// queued beyond its length, and releases the port. It returns the port's
// queue as it was before the release: its backing is now the top of the
// released stack.
func releaseDirtyBacking(t testing.TB) []*pkt.Buf {
	t.Helper()
	tx, rx := NewPort(Config{TxRing: 8192}), NewPort(Config{RxRing: 8192})
	Connect(tx, rx)
	pool := pkt.NewPool(2048)
	for i := 0; i < 6000; i++ {
		if !tx.SendAt(0, pool.Get(64)) {
			t.Fatalf("frame %d refused", i)
		}
	}
	if n := rx.RxBurst(tx.BusyUntil()+DefaultRxLatency, make([]*pkt.Buf, 4000)); n != 4000 {
		t.Fatalf("polled %d frames, want 4000", n)
	}
	q := rx.rxq
	if rx.rxHead != 0 || len(q) != 2000 || q[:4001][4000] != q[0] {
		t.Fatalf("queue of %d entries from %d, entry 4000 %p: want it compacted to 2000 with a stale copy of entry 0 past its end", len(q), rx.rxHead, q[:4001][4000])
	}
	rx.Release()
	return q
}

// stackDepth returns how many backings the released stack holds.
func stackDepth() int {
	rxBacks.Lock()
	defer rxBacks.Unlock()
	return len(rxBacks.s)
}

// TestRxQueueRelease: a port that never queued a frame releases nothing; a
// released backing is cleared to its capacity; the next port to queue
// leases it and a second one does not share it; a released port panics on
// an arrival to queue, and releasing it again pushes nothing.
func TestRxQueueRelease(t *testing.T) {
	depth := stackDepth()
	idle, sunk := NewPort(Config{}), NewPort(Config{})
	Connect(idle, sunk)
	sunk.BindSink(2*units.Microsecond, func(b *pkt.Buf, _ units.Time) { b.Free() })
	idle.SendAt(0, pkt.NewPool(2048).Get(64))
	idle.Release()
	sunk.Release()
	if d := stackDepth(); d != depth {
		t.Fatalf("ports that queued nothing pushed %d backings", d-depth)
	}

	dirty := releaseDirtyBacking(t)
	rxBacks.Lock()
	top := rxBacks.s[len(rxBacks.s)-1]
	rxBacks.Unlock()
	if stackDepth() != depth+1 || len(top) != 0 || cap(top) != cap(dirty) || &top[:1][0] != &dirty[:1][0] {
		t.Fatalf("released stack: %d backings, top of length %d and capacity %d; want %d, the released one of length 0 and capacity %d",
			stackDepth(), len(top), cap(top), depth+1, cap(dirty))
	}
	for i, b := range top[:cap(top)] {
		if b != nil {
			t.Fatalf("released backing holds a buffer at %d", i)
		}
	}

	pool := pkt.NewPool(2048)
	var rx [2]*Port
	for i := range rx {
		tx := NewPort(Config{})
		rx[i] = NewPort(Config{})
		Connect(tx, rx[i])
		tx.SendAt(0, pool.Get(64))
	}
	if &rx[0].rxq[:1][0] != &dirty[:1][0] {
		t.Fatal("the first port to queue did not lease the released backing")
	}
	if &rx[1].rxq[:1][0] == &rx[0].rxq[:1][0] {
		t.Fatal("two ports share one RX queue backing")
	}
	if n := rx[0].RxPending(units.Second); n != 1 {
		t.Fatalf("leased queue holds %d frames, want 1", n)
	}

	leasedDepth := stackDepth()
	rx[0].Release()
	rx[0].Release()
	if d := stackDepth(); d != leasedDepth+1 {
		t.Fatalf("releasing a port twice pushed %d backings, want 1", d-leasedDepth)
	}
	rx[1].Release()
	for stackDepth() > depth { // leave the stack as deep as it was
		NewPort(Config{}).leaseRxq()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a frame queued at a released port")
		}
	}()
	rx[0].peer.SendAt(units.Second, pool.Get(64))
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
