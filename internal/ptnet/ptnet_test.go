package ptnet

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/cpu"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/units"
)

func TestZeroCopyBothDirections(t *testing.T) {
	p := New(Config{Name: "pt0"})
	pool := pkt.NewPool(2048)
	hm := cost.NewMeter(cost.Default(), nil)
	gm := cost.NewMeter(cost.Default(), nil)

	h := pool.Get(64)
	if p.HostSendBurst(hm, []*pkt.Buf{h}) != 1 {
		t.Fatal("host send failed")
	}
	var out [1]*pkt.Buf
	if p.GuestRecv(gm, out[:]) != 1 || out[0] != h {
		t.Fatal("guest did not receive the same buffer")
	}
	if p.GuestSendBurst(0, gm, out[:]) != 1 {
		t.Fatal("guest send failed")
	}
	if p.HostRecv(hm, out[:]) != 1 || out[0] != h {
		t.Fatal("host did not receive the same buffer")
	}
	out[0].Free()
	// Descriptor-only costs: cheaper than any copy.
	if hm.Pending() >= cost.Default().CopyCost(64) {
		t.Fatalf("ptnet host cost %d not below a copy", hm.Pending())
	}
}

func TestRingOverflow(t *testing.T) {
	p := New(Config{Name: "pt0", Slots: 2})
	pool := pkt.NewPool(2048)
	m := cost.NewMeter(cost.Default(), nil)
	ok := 0
	for i := 0; i < 5; i++ {
		ok += p.HostSendBurst(m, []*pkt.Buf{pool.Get(64)})
	}
	if ok != 2 || p.Drops() != 3 {
		t.Fatalf("ok=%d drops=%d", ok, p.Drops())
	}
	// Rejected frames went back to the pool.
	if pool.Live() != 2 {
		t.Fatalf("live = %d, want the 2 queued frames", pool.Live())
	}
}

func TestGuestSendWakesHost(t *testing.T) {
	s := sim.NewScheduler()
	p := New(Config{Name: "pt0", NotifyDelay: 3 * units.Microsecond})
	pool := pkt.NewPool(2048)

	var served int
	core := cpu.NewIRQCore(s, "host", cost.NewMeter(cost.Default(), sim.NewRNG(1)),
		func(now units.Time, m *cost.Meter) bool {
			var out [8]*pkt.Buf
			n := p.HostRecv(m, out[:])
			for _, b := range out[:n] {
				b.Free()
			}
			served += n
			return n > 0
		})
	p.BindHostIRQ(core)

	gm := cost.NewMeter(cost.Default(), nil)
	if p.GuestSendBurst(0, gm, []*pkt.Buf{pool.Get(64)}) != 1 {
		t.Fatal("send failed")
	}
	s.RunUntil(units.Millisecond)
	if served != 1 {
		t.Fatalf("served = %d", served)
	}
	if core.Wakeups != 1 {
		t.Fatalf("wakeups = %d", core.Wakeups)
	}
}

func TestPendingCounts(t *testing.T) {
	p := New(Config{Name: "pt0"})
	pool := pkt.NewPool(2048)
	m := cost.NewMeter(cost.Default(), nil)
	p.HostSendBurst(m, []*pkt.Buf{pool.Get(64), pool.Get(64)})
	if p.GuestPending() != 2 || p.HostPending() != 0 {
		t.Fatalf("pending = %d, %d", p.GuestPending(), p.HostPending())
	}
}
