package vm

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/pkt"
	"repro/internal/ptnet"
	"repro/internal/sim"
	"repro/internal/switches/switchdef"
	"repro/internal/units"
	"repro/internal/vhost"
)

func virtioPair(name string) (*vhost.Device, *VirtioIf, *pkt.Pool, *pkt.Pool) {
	host, guest := pkt.NewPool(2048), pkt.NewPool(2048)
	dev := vhost.New(vhost.Config{Name: name, GuestNotifyDelay: units.Nanosecond})
	return dev, &VirtioIf{Dev: dev}, host, guest
}

func frameTo(pool *pkt.Pool, dst pkt.MAC) *pkt.Buf {
	b := pool.Get(64)
	pkt.FrameSpec{SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: dst, FrameLen: 64}.Build(b)
	return b
}

func TestL2FwdRewritesAndBatches(t *testing.T) {
	devA, ifA, hostA, _ := virtioPair("a")
	devB, ifB, _, _ := virtioPair("b")
	own := pkt.MAC{0x02, 0xff, 0, 0, 0, 1}
	next := switchdef.PortMAC(5)
	fwd := &L2Fwd{A: ifA, B: ifB, OwnMAC: own, RewriteAB: &next}
	hm := cost.NewMeter(cost.Default(), nil)
	gm := cost.NewMeter(cost.Default(), nil)

	// Deliver one frame: the VNF buffers it (strict batching).
	devA.HostEnqueueBurst(0, hm, []*pkt.Buf{frameTo(hostA, pkt.MAC{9, 9, 9, 9, 9, 9})})
	fwd.Poll(units.Microsecond, gm)
	if devB.HostPending() != 0 {
		t.Fatal("flushed before batch or drain")
	}
	// After the drain timeout, the frame leaves, rewritten.
	fwd.Poll(units.Microsecond+l2fwdDrain, gm)
	if devB.HostPending() != 1 {
		t.Fatalf("pending = %d", devB.HostPending())
	}
	var out [1]*pkt.Buf
	devB.HostDequeueBurst(hm, out[:])
	if pkt.EthDst(out[0].Bytes()) != next {
		t.Fatal("dst MAC not rewritten")
	}
	if pkt.EthSrc(out[0].Bytes()) != own {
		t.Fatal("src MAC not set")
	}
	out[0].Free()
	if devB.TxDrops() != 0 || devB.HostPending() != 0 {
		t.Fatalf("B dropped %d frames and still holds %d", devB.TxDrops(), devB.HostPending())
	}
}

func TestL2FwdFullBatchFlushesImmediately(t *testing.T) {
	devA, ifA, hostA, _ := virtioPair("a")
	devB, ifB, _, _ := virtioPair("b")
	fwd := &L2Fwd{A: ifA, B: ifB, OwnMAC: pkt.MAC{2, 0, 0, 0, 0, 9}}
	hm := cost.NewMeter(cost.Default(), nil)
	gm := cost.NewMeter(cost.Default(), nil)
	for i := 0; i < L2FwdBurst; i++ {
		devA.HostEnqueueBurst(0, hm, []*pkt.Buf{frameTo(hostA, pkt.MAC{9, 9, 9, 9, 9, 9})})
	}
	fwd.Poll(units.Microsecond, gm)
	if devB.HostPending() != L2FwdBurst {
		t.Fatalf("pending = %d, want full batch", devB.HostPending())
	}
}

func TestL2FwdBidirectional(t *testing.T) {
	devA, ifA, hostA, _ := virtioPair("a")
	devB, ifB, hostB, _ := virtioPair("b")
	fwd := &L2Fwd{A: ifA, B: ifB, OwnMAC: pkt.MAC{2, 0, 0, 0, 0, 9}}
	hm := cost.NewMeter(cost.Default(), nil)
	gm := cost.NewMeter(cost.Default(), nil)
	devA.HostEnqueueBurst(0, hm, []*pkt.Buf{frameTo(hostA, pkt.MAC{1, 1, 1, 1, 1, 1})})
	devB.HostEnqueueBurst(0, hm, []*pkt.Buf{frameTo(hostB, pkt.MAC{2, 2, 2, 2, 2, 2})})
	fwd.Poll(10*units.Microsecond, gm)
	fwd.Poll(10*units.Microsecond+l2fwdDrain, gm) // drain fires
	if devB.HostPending() != 1 || devA.HostPending() != 1 {
		t.Fatalf("pending = %d, %d", devA.HostPending(), devB.HostPending())
	}
}

func TestValeFwdCopiesAndForwards(t *testing.T) {
	ptA, ptB := ptnet.New(ptnet.Config{Name: "a"}), ptnet.New(ptnet.Config{Name: "b"})
	guestPool := pkt.NewPool(2048)
	fwd := &ValeFwd{A: &PtnetIf{Dev: ptA}, B: &PtnetIf{Dev: ptB}, Pool: guestPool}
	hm := cost.NewMeter(cost.Default(), nil)
	gm := cost.NewMeter(cost.Default(), nil)

	hostPool := pkt.NewPool(2048)
	in := frameTo(hostPool, pkt.MAC{3, 3, 3, 3, 3, 3})
	ptA.HostSendBurst(hm, []*pkt.Buf{in})
	fwd.Poll(0, gm) // no batching: forwards immediately
	var out [1]*pkt.Buf
	if ptB.HostRecv(hm, out[:]) != 1 {
		t.Fatal("not forwarded")
	}
	if out[0] == in {
		t.Fatal("guest VALE must copy between ports")
	}
	out[0].Free()
}

func TestValeFwdDropsOnFullRing(t *testing.T) {
	ptA, ptB := ptnet.New(ptnet.Config{Name: "a"}), ptnet.New(ptnet.Config{Name: "b", Slots: 1})
	guestPool, hostPool := pkt.NewPool(2048), pkt.NewPool(2048)
	ifB := &PtnetIf{Dev: ptB}
	fwd := &ValeFwd{A: &PtnetIf{Dev: ptA}, B: ifB, Pool: guestPool}
	hm := cost.NewMeter(cost.Default(), nil)
	gm := cost.NewMeter(cost.Default(), nil)

	queued := hostPool.Get(64)
	ifB.SendBurst(0, gm, []*pkt.Buf{queued}) // B's only slot
	ptA.HostSendBurst(hm, []*pkt.Buf{
		frameTo(hostPool, pkt.MAC{3, 3, 3, 3, 3, 3}),
		frameTo(hostPool, pkt.MAC{3, 3, 3, 3, 3, 3}),
	})
	fwd.Poll(0, gm)
	if ptB.Drops() != 2 {
		t.Fatalf("device drops = %d, want both copies", ptB.Drops())
	}
	// The device freed each rejected copy exactly once; the originals went
	// back after copying.
	if guestPool.Live() != 0 || hostPool.Live() != 1 {
		t.Fatalf("live: guest %d, host %d (want 0, the queued frame)", guestPool.Live(), hostPool.Live())
	}
	// The far side receives only the frame queued before.
	var out [3]*pkt.Buf
	if n := ptB.HostRecv(hm, out[:]); n != 1 || out[0] != queued {
		t.Fatalf("B delivered %d frames, first %p, want only the queued %p", n, out[0], queued)
	}
}

func TestMonitorCountsAndResolvesProbes(t *testing.T) {
	dev, ifc, hostPool, _ := virtioPair("m")
	mo := &Monitor{If: ifc}
	hm := cost.NewMeter(cost.Default(), nil)
	gm := cost.NewMeter(cost.Default(), nil)

	plain := frameTo(hostPool, pkt.MAC{1, 1, 1, 1, 1, 1})
	probe := frameTo(hostPool, pkt.MAC{1, 1, 1, 1, 1, 1})
	pkt.MarkProbe(probe, 1, 10*units.Microsecond)
	dev.HostEnqueueBurst(0, hm, []*pkt.Buf{plain, probe})
	mo.Poll(50*units.Microsecond, gm)
	if mo.Rx.Packets != 2 {
		t.Fatalf("rx = %d", mo.Rx.Packets)
	}
	if mo.Hist.N() != 1 {
		t.Fatalf("probes = %d", mo.Hist.N())
	}
	if got := mo.Hist.Mean(); got != 40*units.Microsecond {
		t.Fatalf("rtt = %v", got)
	}
}

func TestMonitorSWNoiseBounded(t *testing.T) {
	dev, ifc, hostPool, _ := virtioPair("m")
	mo := &Monitor{If: ifc, SWStampNoise: 2 * units.Microsecond, RNG: sim.NewRNG(3)}
	hm := cost.NewMeter(cost.Default(), nil)
	gm := cost.NewMeter(cost.Default(), nil)
	for i := 0; i < 50; i++ {
		probe := frameTo(hostPool, pkt.MAC{1, 1, 1, 1, 1, 1})
		pkt.MarkProbe(probe, uint64(i), 2*units.Microsecond)
		dev.HostEnqueueBurst(0, hm, []*pkt.Buf{probe})
		mo.Poll(12*units.Microsecond, gm)
	}
	if mo.Hist.Min() < 10*units.Microsecond || mo.Hist.Max() > 12*units.Microsecond {
		t.Fatalf("noise out of bounds: [%v, %v]", mo.Hist.Min(), mo.Hist.Max())
	}
}

func TestGuestGeneratorPacesAtVirtualRate(t *testing.T) {
	s := sim.NewScheduler()
	dev, ifc, _, guestPool := virtioPair("g")
	gen := &Generator{
		If: ifc, Pool: guestPool,
		Spec:        pkt.FrameSpec{SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2}, FrameLen: 64},
		VirtualRate: units.TenGigE,
	}
	StartGenerator(s, "gen", gen, cost.NewMeter(cost.Default(), sim.NewRNG(2)), 0)
	// Drain continuously so the vring never blocks.
	drained := 0
	hm := cost.NewMeter(cost.Default(), nil)
	drainTask := s.Register("drain", sim.StepFunc(func(now units.Time) (units.Time, bool) {
		var out [64]*pkt.Buf
		n := dev.HostDequeueBurst(hm, out[:])
		for _, b := range out[:n] {
			b.Free()
		}
		drained += n
		return now + units.Microsecond, true
	}))
	s.WakeAt(drainTask, 0)
	s.RunUntil(units.Millisecond)
	// 10G at 64B = 14.88 Mpps → ~14880 packets per ms.
	if gen.Sent < 14000 || gen.Sent > 15500 {
		t.Fatalf("sent = %d, want ~14880", gen.Sent)
	}
}

func TestGuestGeneratorUnlimitedBeatsLineRate(t *testing.T) {
	s := sim.NewScheduler()
	pt := ptnet.New(ptnet.Config{Name: "g", Slots: 4096})
	guestPool := pkt.NewPool(2048)
	gen := &Generator{
		If: &PtnetIf{Dev: pt}, Pool: guestPool,
		Spec: pkt.FrameSpec{SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2}, FrameLen: 64},
	}
	StartGenerator(s, "gen", gen, cost.NewMeter(cost.Default(), sim.NewRNG(2)), 0)
	hm := cost.NewMeter(cost.Default(), nil)
	drainTask := s.Register("drain", sim.StepFunc(func(now units.Time) (units.Time, bool) {
		var out [256]*pkt.Buf
		n := pt.HostRecv(hm, out[:])
		for _, b := range out[:n] {
			b.Free()
		}
		return now + units.Microsecond, true
	}))
	s.WakeAt(drainTask, 0)
	s.RunUntil(units.Millisecond)
	// pkt-gen over ptnet is not line-rate capped (paper: VALE v2v beats
	// 10 Gbps).
	if gen.Sent < 16000 {
		t.Fatalf("sent = %d, want well above line-rate pacing", gen.Sent)
	}
}

// TestGuestGeneratorBlockedStep gives the device k free transmit slots,
// fewer than a burst, and runs one generator step: the generator stages
// k+1 frames and the device drops the last, so the step pays k+1
// generation charges but only k descriptors. With k = 0 and a probe due,
// the dropped frame takes the probe slot.
func TestGuestGeneratorBlockedStep(t *testing.T) {
	const depth = 8
	model := cost.Default()
	devices := []struct {
		name string
		desc units.Cycles
		// mk returns a fresh interface and its device's drop count.
		mk func() (NetIf, func() int64)
	}{
		{"vhost", model.VhostDesc, func() (NetIf, func() int64) {
			d := vhost.New(vhost.Config{Name: "g", QueueLen: depth})
			return &VirtioIf{Dev: d}, d.TxDrops
		}},
		{"ptnet", model.PtnetDesc, func() (NetIf, func() int64) {
			p := ptnet.New(ptnet.Config{Name: "g", Slots: depth})
			return &PtnetIf{Dev: p}, p.Drops
		}},
	}
	cases := []struct {
		k     int
		probe bool
	}{{0, false}, {3, false}, {depth - 1, false}, {0, true}}
	const now = 10 * units.Microsecond
	for _, d := range devices {
		for _, c := range cases {
			ifc, drops := d.mk()
			host := pkt.NewPool(2048)
			fill := make([]*pkt.Buf, depth-c.k)
			for i := range fill {
				fill[i] = host.Get(64)
			}
			if ifc.SendBurst(0, cost.NewMeter(model, nil), fill) != len(fill) || ifc.SendSpace() != c.k {
				t.Fatalf("%s k=%d: setup left %d free slots", d.name, c.k, ifc.SendSpace())
			}
			pool := pkt.NewPool(2048)
			gen := &Generator{If: ifc, Pool: pool,
				Spec: pkt.FrameSpec{SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2}, FrameLen: 64}}
			if c.probe {
				// A paced latency run: one frame per step, the probe due now.
				gen.VirtualRate, gen.ProbeEvery = units.TenGigE, now
			}
			m := cost.NewMeter(model, nil)
			StartGenerator(sim.NewScheduler(), "gen", gen, m, 0)
			gen.Step(now)

			k := int64(c.k)
			want := units.Cycles(k+1)*guestGenPerPkt + units.Cycles(k)*d.desc
			if gen.Sent != k || drops() != 1 || m.Total() != want || gen.seq != uint64(k+1) {
				t.Errorf("%s k=%d probe=%v: sent=%d drops=%d cycles=%d seq=%d; want %d, 1, %d, %d",
					d.name, c.k, c.probe, gen.Sent, drops(), m.Total(), gen.seq, k, want, k+1)
			}
			if pool.Live() != c.k {
				t.Errorf("%s k=%d: %d generator buffers live, want %d (the drop is freed)", d.name, c.k, pool.Live(), c.k)
			}
			if c.probe && gen.nextProbe != now+gen.ProbeEvery {
				t.Errorf("%s: next probe at %v, want %v: the dropped frame did not take the probe slot",
					d.name, gen.nextProbe, now+gen.ProbeEvery)
			}
		}
	}
}
