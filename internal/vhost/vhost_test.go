package vhost

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/pkt"
	"repro/internal/units"
)

func TestHostEnqueueTransfersOwnership(t *testing.T) {
	dev := New(Config{Name: "v0"})
	pool := pkt.NewPool(2048)
	m := cost.NewMeter(cost.Default(), nil)
	b := pool.Get(64)
	b.Seq = 9
	if dev.HostEnqueueBurst(0, m, []*pkt.Buf{b}) != 1 {
		t.Fatal("enqueue failed")
	}
	// The buffer crosses by ownership transfer: no clone, no free — the
	// same *Buf comes out the guest side, only the simulated copy is
	// charged.
	if pool.Live() != 1 {
		t.Fatalf("live = %d, want the transferred buffer", pool.Live())
	}
	if dev.HostCopies != 1 {
		t.Fatalf("copies = %d", dev.HostCopies)
	}
	if m.Pending() == 0 {
		t.Fatal("copy charged nothing")
	}
	var out [4]*pkt.Buf
	if n := dev.GuestRecv(units.Second, m, out[:]); n != 1 || out[0] != b {
		t.Fatalf("guest did not receive the transferred buffer (n=%d)", n)
	}
	if out[0].Seq != 9 {
		t.Fatal("metadata lost in transfer")
	}
	out[0].Free()
}

func TestGuestNotifyDelayGatesVisibility(t *testing.T) {
	const delay = 5 * units.Microsecond
	dev := New(Config{Name: "v0", GuestNotifyDelay: delay})
	pool := pkt.NewPool(2048)
	m := cost.NewMeter(cost.Default(), nil)
	dev.HostEnqueueBurst(0, m, []*pkt.Buf{pool.Get(64)})
	var out [4]*pkt.Buf
	if n := dev.GuestRecv(2*units.Microsecond, m, out[:]); n != 0 {
		t.Fatalf("frame visible before notify delay: %d", n)
	}
	// Exact boundary: a frame whose AvailAt equals now is visible.
	if n := dev.GuestRecv(delay-units.Nanosecond, m, out[:]); n != 0 {
		t.Fatalf("frame visible 1ns before the boundary: %d", n)
	}
	if n := dev.GuestRecv(delay, m, out[:]); n != 1 {
		t.Fatalf("frame not visible at the exact boundary: %d", n)
	}
	out[0].Free()
}

func TestVringOverflowDrops(t *testing.T) {
	dev := New(Config{Name: "v0", QueueLen: 4})
	pool := pkt.NewPool(2048)
	m := cost.NewMeter(cost.Default(), nil)
	accepted := 0
	for i := 0; i < 10; i++ {
		accepted += dev.HostEnqueueBurst(0, m, []*pkt.Buf{pool.Get(64)})
	}
	if accepted != 4 {
		t.Fatalf("accepted = %d, want ring size", accepted)
	}
	if dev.RxDrops() != 6 {
		t.Fatalf("drops = %d", dev.RxDrops())
	}
	// Accepted frames live on in the vring; rejected ones went back.
	if pool.Live() != 4 {
		t.Fatalf("live = %d, want the 4 enqueued frames", pool.Live())
	}
}

func TestBurstEnqueueBackpressure(t *testing.T) {
	dev := New(Config{Name: "v0", QueueLen: 4})
	pool := pkt.NewPool(2048)
	m := cost.NewMeter(cost.Default(), nil)
	in := make([]*pkt.Buf, 10)
	for i := range in {
		in[i] = pool.Get(64)
	}
	if n := dev.HostEnqueueBurst(0, m, in); n != 4 {
		t.Fatalf("burst enqueue = %d, want ring size", n)
	}
	if dev.RxDrops() != 6 {
		t.Fatalf("drops = %d", dev.RxDrops())
	}
	if dev.HostCopies != 4 {
		t.Fatalf("copies = %d, rejects must not be charged as copies", dev.HostCopies)
	}
	// The burst frees rejects itself.
	if pool.Live() != 4 {
		t.Fatalf("live = %d, rejects leaked", pool.Live())
	}
}

func TestGuestSendHostDequeue(t *testing.T) {
	dev := New(Config{Name: "v0"})
	pool := pkt.NewPool(2048)
	gm := cost.NewMeter(cost.Default(), nil)
	g := pool.Get(128)
	g.Seq = 42
	if dev.GuestSendBurst(gm, []*pkt.Buf{g}) != 1 {
		t.Fatal("guest send failed")
	}
	if dev.HostPending() != 1 {
		t.Fatal("host pending wrong")
	}
	hm := cost.NewMeter(cost.Default(), nil)
	var out [4]*pkt.Buf
	if n := dev.HostDequeueBurst(hm, out[:]); n != 1 {
		t.Fatalf("dequeue = %d", n)
	}
	if out[0] != g || out[0].Seq != 42 || out[0].Len() != 128 {
		t.Fatal("transferred buffer mismatch")
	}
	if hm.Pending() == 0 {
		t.Fatal("dequeue copy charged nothing")
	}
	out[0].Free()
	if pool.Live() != 0 {
		t.Fatalf("leak: %d live", pool.Live())
	}
}

// refHostEnqueue is the per-frame reference for HostEnqueueBurst: it
// delivers one frame, charging its crossing alone. If the vring is full it
// counts a drop and the caller keeps the frame.
func refHostEnqueue(d *Device, now units.Time, m *cost.Meter, b *pkt.Buf) bool {
	if d.rxRing.Free() == 0 {
		d.rxRing.Drops++
		return false
	}
	b.AvailAt = now + d.cfg.GuestNotifyDelay
	d.rxRing.Push(b)
	m.Charge(d.enqCost(m, b.Len()))
	d.HostCopies++
	if d.guest != nil {
		d.guest.Notify(b.AvailAt)
	}
	return true
}

// refHostDequeue is the per-frame reference for HostDequeueBurst: it takes
// up to len(out) frames, charging each crossing on its own.
func refHostDequeue(d *Device, m *cost.Meter, out []*pkt.Buf) int {
	n := 0
	for n < len(out) {
		g := d.txRing.Pop()
		if g == nil {
			break
		}
		g.AvailAt = 0
		m.Charge(d.deqCost(m, g.Len()))
		d.HostCopies++
		out[n] = g
		n++
	}
	return n
}

// refGuestSend is the per-frame reference for GuestSendBurst: it posts one
// frame, charging its descriptor alone. If the vring is full it counts a
// drop (ring.Push does) and the caller keeps the frame.
func refGuestSend(d *Device, m *cost.Meter, b *pkt.Buf) bool {
	if !d.txRing.Push(b) {
		return false
	}
	m.Charge(m.Model.VhostDesc)
	if d.host != nil {
		d.host.NotifyNow()
	}
	return true
}

// TestPerFrameVsBurstEquivalence drives two identical devices — one with
// the per-frame reference above, one with the burst calls — through the
// same overloaded traffic and requires identical charges, copies, drops,
// and frame order (the bit-identity contract of the fast path).
func TestPerFrameVsBurstEquivalence(t *testing.T) {
	const queue, offered = 8, 13
	mkFrames := func(pool *pkt.Pool) []*pkt.Buf {
		in := make([]*pkt.Buf, offered)
		for i := range in {
			in[i] = pool.Get(64 + i*17)
			in[i].Seq = uint64(i + 1)
		}
		return in
	}

	// Host→guest direction.
	refDev, refPool := New(Config{Name: "ref", QueueLen: queue}), pkt.NewPool(2048)
	refM := cost.NewMeter(cost.Default(), nil)
	for _, b := range mkFrames(refPool) {
		if !refHostEnqueue(refDev, units.Microsecond, refM, b) {
			b.Free()
		}
	}
	optDev, optPool := New(Config{Name: "opt", QueueLen: queue}), pkt.NewPool(2048)
	optM := cost.NewMeter(cost.Default(), nil)
	optDev.HostEnqueueBurst(units.Microsecond, optM, mkFrames(optPool))

	if refM.Pending() != optM.Pending() {
		t.Fatalf("enqueue charges diverge: ref=%d opt=%d", refM.Pending(), optM.Pending())
	}
	if refDev.HostCopies != optDev.HostCopies || refDev.RxDrops() != optDev.RxDrops() {
		t.Fatalf("enqueue accounting diverges: copies %d/%d drops %d/%d",
			refDev.HostCopies, optDev.HostCopies, refDev.RxDrops(), optDev.RxDrops())
	}
	var refOut, optOut [queue]*pkt.Buf
	rn := refDev.GuestRecv(units.Second, refM, refOut[:])
	on := optDev.GuestRecv(units.Second, optM, optOut[:])
	if rn != on {
		t.Fatalf("delivered counts diverge: %d vs %d", rn, on)
	}
	for i := 0; i < rn; i++ {
		if refOut[i].Seq != optOut[i].Seq || refOut[i].Len() != optOut[i].Len() {
			t.Fatalf("frame %d diverges: seq %d/%d len %d/%d",
				i, refOut[i].Seq, optOut[i].Seq, refOut[i].Len(), optOut[i].Len())
		}
	}

	// Guest→host direction, reusing the delivered frames.
	refGM, optGM := cost.NewMeter(cost.Default(), nil), cost.NewMeter(cost.Default(), nil)
	for _, b := range refOut[:rn] {
		if !refGuestSend(refDev, refGM, b) {
			b.Free()
		}
	}
	optDev.GuestSendBurst(optGM, append([]*pkt.Buf(nil), optOut[:on]...))
	if refGM.Pending() != optGM.Pending() || refDev.TxDrops() != optDev.TxDrops() {
		t.Fatalf("guest send diverges: charge %d/%d drops %d/%d",
			refGM.Pending(), optGM.Pending(), refDev.TxDrops(), optDev.TxDrops())
	}
	refHM, optHM := cost.NewMeter(cost.Default(), nil), cost.NewMeter(cost.Default(), nil)
	var refBack, optBack [queue]*pkt.Buf
	rb := refHostDequeue(refDev, refHM, refBack[:])
	ob := optDev.HostDequeueBurst(optHM, optBack[:])
	if rb != ob || refHM.Pending() != optHM.Pending() {
		t.Fatalf("dequeue diverges: n %d/%d charge %d/%d", rb, ob, refHM.Pending(), optHM.Pending())
	}
	for i := 0; i < rb; i++ {
		if refBack[i].Seq != optBack[i].Seq {
			t.Fatalf("dequeue order diverges at %d: %d vs %d", i, refBack[i].Seq, optBack[i].Seq)
		}
		refBack[i].Free()
		optBack[i].Free()
	}
}

func TestCostScaleDirections(t *testing.T) {
	cheap := New(Config{Name: "a"})
	costly := New(Config{Name: "b", EnqScale: 2, DeqScale: 0.5})
	pool := pkt.NewPool(2048)

	chargeEnq := func(d *Device) units.Cycles {
		m := cost.NewMeter(cost.Default(), nil)
		d.HostEnqueueBurst(0, m, []*pkt.Buf{pool.Get(64)})
		return m.Pending()
	}
	chargeDeq := func(d *Device) units.Cycles {
		d.GuestSendBurst(cost.NewMeter(cost.Default(), nil), []*pkt.Buf{pool.Get(64)})
		m := cost.NewMeter(cost.Default(), nil)
		var out [1]*pkt.Buf
		d.HostDequeueBurst(m, out[:])
		out[0].Free()
		return m.Pending()
	}
	if 2*chargeEnq(cheap) != chargeEnq(costly) {
		t.Fatalf("enq scale: base=%d scaled=%d", chargeEnq(cheap), chargeEnq(costly))
	}
	if chargeDeq(cheap)/2 != chargeDeq(costly) {
		t.Fatalf("deq scale: base=%d scaled=%d", chargeDeq(cheap), chargeDeq(costly))
	}
}

func TestCopyCostGrowsWithFrameSize(t *testing.T) {
	dev := New(Config{Name: "v0"})
	pool := pkt.NewPool(2048)
	charge := func(size int) units.Cycles {
		m := cost.NewMeter(cost.Default(), nil)
		dev.HostEnqueueBurst(0, m, []*pkt.Buf{pool.Get(size)})
		return m.Pending()
	}
	if charge(64) >= charge(1024) {
		t.Fatal("1024B crossing not costlier than 64B")
	}
}
