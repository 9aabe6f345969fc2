package multicore

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/nic"
	"repro/internal/pkt"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/switches/switchdef"
	"repro/internal/units"
)

func newMeter() *cost.Meter {
	return cost.NewMeter(cost.Default(), sim.NewRNG(1))
}

// fakeDev is a guest-like device: a scripted receive queue and a
// transmit log, with no cycle prices of its own.
type fakeDev struct {
	kind switchdef.PortKind
	rx   []*pkt.Buf
	tx   []*pkt.Buf
}

func (d *fakeDev) Kind() switchdef.PortKind { return d.kind }

func (d *fakeDev) RxBurst(now units.Time, m *cost.Meter, out []*pkt.Buf) int {
	n := copy(out, d.rx)
	d.rx = d.rx[n:]
	return n
}

func (d *fakeDev) TxBurst(now units.Time, m *cost.Meter, in []*pkt.Buf) int {
	d.tx = append(d.tx, in...)
	return len(in)
}

func (d *fakeDev) NextRx(now units.Time) units.Time { return now }

// fakeInst records the per-core views a Fleet hands out.
type fakeInst struct {
	switchdef.NoRuntimeRules

	core  int
	views []switchdef.DevPort
}

func (s *fakeInst) AddPort(p switchdef.DevPort) int {
	s.views = append(s.views, p)
	return len(s.views) - 1
}

func (s *fakeInst) CrossConnect(a, b int) error { return nil }

func (s *fakeInst) Poll(now units.Time, m *cost.Meter) bool { return false }

// fakeFleet builds a Fleet over fakeInst instances and returns both.
func fakeFleet(t *testing.T, opt Options) (*Fleet, []*fakeInst) {
	t.Helper()
	var insts []*fakeInst
	opt.NewInstance = func(core int) (switchdef.Switch, error) {
		in := &fakeInst{core: core}
		insts = append(insts, in)
		return in, nil
	}
	f, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	return f, insts
}

func TestNewValidation(t *testing.T) {
	mk := func(core int) (switchdef.Switch, error) { return &fakeInst{core: core}, nil }
	bad := []Options{
		{Cores: 1, Dispatch: ModeRSS, Policy: PolicyRoundRobin, NewInstance: mk},
		{Cores: 2, Dispatch: ModeRSS, Policy: "spray", NewInstance: mk},
		{Cores: 2, Dispatch: "pipeline", NewInstance: mk},
	}
	for _, opt := range bad {
		if _, err := New(opt); err == nil {
			t.Errorf("New(%+v) accepted an invalid option set", opt)
		}
	}
	f, err := New(Options{Cores: 2, Dispatch: ModeRTC, NewInstance: mk})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.insts) != 1 {
		t.Errorf("2-core rtc built %d process instances, want 1", len(f.insts))
	}
	f, err = New(Options{Cores: 4, Dispatch: ModeRSS, Policy: PolicyRoundRobin, NewInstance: mk})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.insts) != 4 {
		t.Errorf("4-core rss built %d instances, want 4", len(f.insts))
	}
}

func TestRSSRoundRobinOwnership(t *testing.T) {
	f, insts := fakeFleet(t, Options{Cores: 2, Dispatch: ModeRSS, Policy: PolicyRoundRobin})
	devs := make([]*fakeDev, 4)
	for i := range devs {
		devs[i] = &fakeDev{kind: switchdef.VhostKind}
		f.AddPort(devs[i])
	}
	// Receive queues are assigned round-robin in declaration order.
	for i, want := range []int{0, 1, 0, 1} {
		if got := f.rxOwner[i]; got != want {
			t.Errorf("port %d owned by core %d, want %d", i, got, want)
		}
		for k, inst := range insts {
			_, txOnly := inst.views[i].(*txOnlyPort)
			if k == want && txOnly {
				t.Errorf("port %d: owner core %d got a tx-only view", i, k)
			}
			if k != want && !txOnly {
				t.Errorf("port %d: non-owner core %d got a receive-capable view", i, k)
			}
		}
	}
	polls := f.Polls()
	if len(polls) != 2 || polls[0].Name != "sut-core0" || polls[1].Name != "sut-core1" {
		t.Errorf("polls = %+v, want sut-core0 and sut-core1", polls)
	}
}

// TestEffectiveCoresClamp: with more cores than receive queues, the
// surplus cores own nothing and are not polled, so a run reports only
// the owners as effective cores.
func TestEffectiveCoresClamp(t *testing.T) {
	f, _ := fakeFleet(t, Options{Cores: 4, Dispatch: ModeRSS, Policy: PolicyRoundRobin})
	f.AddPort(&fakeDev{kind: switchdef.VhostKind})
	f.AddPort(&fakeDev{kind: switchdef.VhostKind})
	if got := len(f.Polls()); got != 2 {
		t.Errorf("%d polled cores, want 2 (only 2 receive queues)", got)
	}
}

func TestTxOnlyPort(t *testing.T) {
	dev := &fakeDev{kind: switchdef.VhostKind}
	pool := pkt.NewPool(2048)
	dev.rx = append(dev.rx, pool.Get(64))
	v := &txOnlyPort{inner: dev}
	m := newMeter()
	var out [8]*pkt.Buf
	if n := v.RxBurst(0, m, out[:]); n != 0 {
		t.Errorf("tx-only view received %d frames", n)
	}
	if m.Pending() != 0 {
		t.Errorf("tx-only receive charged %d cycles", m.Pending())
	}
	b := pool.Get(64)
	if n := v.TxBurst(0, m, []*pkt.Buf{b}); n != 1 || len(dev.tx) != 1 {
		t.Errorf("tx-only transmit: sent %d, device saw %d", n, len(dev.tx))
	}
}

func TestRemotePortTax(t *testing.T) {
	dev := &fakeDev{kind: switchdef.VhostKind}
	pool := pkt.NewPool(2048)
	dev.rx = append(dev.rx, pool.Get(64))
	v := &remotePort{inner: dev}
	m := newMeter()
	var out [8]*pkt.Buf
	if n := v.RxBurst(0, m, out[:]); n != 1 {
		t.Fatalf("remote receive returned %d frames", n)
	}
	want := m.Model.RemoteCost(64)
	if m.Pending() != want {
		t.Errorf("remote receive charged %d cycles, want %d", m.Pending(), want)
	}
	m2 := newMeter()
	v.TxBurst(0, m2, []*pkt.Buf{pool.Get(128)})
	if want := m2.Model.RemoteCost(128); m2.Pending() != want {
		t.Errorf("remote transmit charged %d cycles, want %d", m2.Pending(), want)
	}
}

// TestFlowHashShardIsolation: under hardware RSS every flow lands on
// exactly one core, every time — a flow steered to core A never appears
// on core B, so it can never warm core B's caches.
func TestFlowHashShardIsolation(t *testing.T) {
	gen := nic.NewPort(nic.Config{Name: "gen", RxLatency: nic.NoLatency, TxLatency: nic.NoLatency})
	sut := nic.NewPort(nic.Config{Name: "sut", RxLatency: nic.NoLatency, TxLatency: nic.NoLatency})
	nic.Connect(gen, sut)

	f, insts := fakeFleet(t, Options{Cores: 2, Dispatch: ModeRSS, Policy: PolicyFlowHash})
	idx := f.AddPort(&switchdef.PhysPort{Port: sut})

	const flows, perFlow = 32, 4
	pool := pkt.NewPool(2048)
	now := units.Time(0)
	for r := 0; r < perFlow; r++ {
		for fl := 0; fl < flows; fl++ {
			b := pool.Get(64)
			// Distinct flows differ in their source MAC.
			b.Bytes()[11] = byte(fl)
			if !gen.SendAt(now, b) {
				t.Fatal("generator TX ring full")
			}
		}
		now += units.Millisecond
	}
	now += units.Millisecond

	flowCore := map[byte]int{}
	total := 0
	var out [64]*pkt.Buf
	for k, inst := range insts {
		m := newMeter()
		for {
			n := inst.views[idx].RxBurst(now, m, out[:])
			if n == 0 {
				break
			}
			total += n
			for _, b := range out[:n] {
				fl := b.View()[11]
				if prev, seen := flowCore[fl]; seen && prev != k {
					t.Fatalf("flow %d migrated from core %d to core %d", fl, prev, k)
				}
				flowCore[fl] = k
				b.Free()
			}
		}
	}
	if total != flows*perFlow {
		t.Errorf("delivered %d frames, want %d", total, flows*perFlow)
	}
	perCore := map[int]int{}
	for _, k := range flowCore {
		perCore[k]++
	}
	if len(perCore) != 2 {
		t.Errorf("flows spread over %d cores, want 2 (got %v)", len(perCore), perCore)
	}
}

func TestRTCLayout(t *testing.T) {
	f, insts := fakeFleet(t, Options{Cores: 4, Dispatch: ModeRTC})
	if len(insts) != 2 {
		t.Fatalf("4-core rtc built %d process instances, want 2", len(insts))
	}
	f.AddPort(&fakeDev{kind: switchdef.VhostKind})
	polls := f.Polls()
	want := []string{"sut-rx", "sut-proc0", "sut-proc1", "sut-tx"}
	if len(polls) != len(want) {
		t.Fatalf("polls = %d, want %d", len(polls), len(want))
	}
	for i, cp := range polls {
		if cp.Name != want[i] {
			t.Errorf("poll %d = %s, want %s", i, cp.Name, want[i])
		}
	}

	// The 2-core layout drops the dedicated receive core: the process
	// stage polls the devices directly.
	f2, insts2 := fakeFleet(t, Options{Cores: 2, Dispatch: ModeRTC})
	idx := f2.AddPort(&fakeDev{kind: switchdef.VhostKind})
	polls2 := f2.Polls()
	if len(polls2) != 2 || polls2[0].Name != "sut-proc0" || polls2[1].Name != "sut-tx" {
		t.Errorf("2-core rtc polls = %+v, want sut-proc0 and sut-tx", polls2)
	}
	v, ok := insts2[0].views[idx].(*rtcProcPort)
	if !ok || v.direct == nil {
		t.Error("2-core rtc process stage should poll the device directly")
	}
}

func TestRTCProcPortTaxes(t *testing.T) {
	pool := pkt.NewPool(2048)
	in, out := ring.New(8), ring.New(2)
	p := &rtcProcPort{dev: &fakeDev{kind: switchdef.VhostKind}, in: in, out: out}

	m := newMeter()
	sent := p.TxBurst(0, m, []*pkt.Buf{pool.Get(64), pool.Get(64), pool.Get(64)})
	if sent != 2 {
		t.Errorf("TxBurst into a 2-slot ring sent %d, want 2", sent)
	}
	if want := 3 * m.Model.HandoffPush; m.Pending() != want {
		t.Errorf("TxBurst charged %d cycles, want %d (3 pushes)", m.Pending(), want)
	}
	if out.Drops != 1 {
		t.Errorf("full handoff ring counted %d drops, want 1", out.Drops)
	}

	in.Push(pool.Get(64))
	in.Push(pool.Get(64))
	m2 := newMeter()
	var buf [8]*pkt.Buf
	if n := p.RxBurst(0, m2, buf[:]); n != 2 {
		t.Fatalf("RxBurst popped %d frames, want 2", n)
	}
	if want := 2 * m2.Model.HandoffPop; m2.Pending() != want {
		t.Errorf("RxBurst charged %d cycles, want %d (2 pops)", m2.Pending(), want)
	}

	// A cross-socket consumer additionally pays the remote touch tax.
	in.Push(pool.Get(64))
	p.remoteIn = true
	m3 := newMeter()
	p.RxBurst(0, m3, buf[:])
	if want := m3.Model.HandoffPop + m3.Model.RemoteCost(64); m3.Pending() != want {
		t.Errorf("remote RxBurst charged %d cycles, want %d", m3.Pending(), want)
	}
}

// TestRTCPipelineFlow walks one burst through the full 3-core pipeline:
// receive/steer → handoff ring → process stage view → outbound ring →
// transmit core → wire.
func TestRTCPipelineFlow(t *testing.T) {
	gen := nic.NewPort(nic.Config{Name: "gen", RxLatency: nic.NoLatency, TxLatency: nic.NoLatency})
	sut := nic.NewPort(nic.Config{Name: "sut", RxLatency: nic.NoLatency, TxLatency: nic.NoLatency})
	nic.Connect(gen, sut)

	f, insts := fakeFleet(t, Options{Cores: 3, Dispatch: ModeRTC})
	idx := f.AddPort(&switchdef.PhysPort{Port: sut})

	pool := pkt.NewPool(2048)
	const n = 8
	for i := 0; i < n; i++ {
		b := pool.Get(64)
		b.Bytes()[0] = byte(i)
		if !gen.SendAt(0, b) {
			t.Fatal("generator TX ring full")
		}
	}
	now := units.Millisecond

	// Stage 1: the receive core drains the device and steers.
	m := newMeter()
	if !f.rtcRxPoll(now, m) {
		t.Fatal("receive core found nothing to steer")
	}
	if got := f.rtc.in[idx].Len(); got != n {
		t.Fatalf("steer ring holds %d frames, want %d", got, n)
	}
	if m.Pending() == 0 {
		t.Error("receive/steer stage charged nothing")
	}

	// Stage 2: the process stage pops its handoff ring, in order.
	var out [16]*pkt.Buf
	got := insts[0].views[idx].RxBurst(now, newMeter(), out[:])
	if got != n {
		t.Fatalf("process stage received %d frames, want %d", got, n)
	}
	for i, b := range out[:got] {
		if b.View()[0] != byte(i) {
			t.Fatalf("frame %d out of order", i)
		}
	}

	// Stage 3: process transmit stages onto the outbound ring; the
	// transmit core drains it onto the wire.
	insts[0].views[idx].TxBurst(now, newMeter(), out[:got])
	if !f.rtcTxPoll(now, newMeter()) {
		t.Fatal("transmit core found nothing to drain")
	}
	if tx := sut.Stats.TxPackets; tx != n {
		t.Errorf("wire saw %d frames, want %d", tx, n)
	}
	if f.Drops() != 0 {
		t.Errorf("pipeline dropped %d frames", f.Drops())
	}
}
