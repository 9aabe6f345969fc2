package ring

import (
	"testing"
	"testing/quick"

	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/units"
)

func TestFIFOOrder(t *testing.T) {
	r := New(8)
	pool := pkt.NewPool(64)
	for i := 0; i < 5; i++ {
		b := pool.Get(64)
		b.Seq = uint64(i)
		if !r.Push(b) {
			t.Fatal("push failed")
		}
	}
	for i := 0; i < 5; i++ {
		b := r.Pop()
		if b == nil || b.Seq != uint64(i) {
			t.Fatalf("pop %d = %v", i, b)
		}
		b.Free()
	}
	if r.Pop() != nil {
		t.Fatal("pop from empty")
	}
}

func TestOverflowCountsDrops(t *testing.T) {
	r := New(3)
	pool := pkt.NewPool(64)
	for i := 0; i < 5; i++ {
		b := pool.Get(64)
		if !r.Push(b) {
			b.Free()
		}
	}
	if r.Len() != 3 || r.Drops != 2 {
		t.Fatalf("len=%d drops=%d", r.Len(), r.Drops)
	}
}

func TestWrapAround(t *testing.T) {
	r := New(4)
	pool := pkt.NewPool(64)
	seq, next := uint64(0), uint64(0)
	// Exercise wrap repeatedly.
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ {
			b := pool.Get(64)
			b.Seq = seq
			seq++
			r.Push(b)
		}
		for i := 0; i < 3; i++ {
			b := r.Pop()
			if b.Seq != next {
				t.Fatalf("popped seq %d, want %d", b.Seq, next)
			}
			next++
			b.Free()
		}
	}
	if r.Len() != 0 {
		t.Fatalf("len = %d after 30 pushes and 30 pops", r.Len())
	}
}

// TestPropertyFIFONoLossNoDup drives a random op sequence against a model
// queue and checks exact agreement: no loss, no duplication, no reordering.
func TestPropertyFIFONoLossNoDup(t *testing.T) {
	f := func(seed uint64, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		r := New(capacity)
		pool := pkt.NewPool(64)
		rng := sim.NewRNG(seed)
		var model []uint64
		next := uint64(0)
		for op := 0; op < 500; op++ {
			if rng.Bernoulli(0.55) {
				b := pool.Get(64)
				b.Seq = next
				if r.Push(b) {
					model = append(model, next)
				} else {
					if len(model) != capacity {
						return false // rejected while not full
					}
					b.Free()
				}
				next++
			} else {
				b := r.Pop()
				if len(model) == 0 {
					if b != nil {
						return false
					}
					continue
				}
				if b == nil || b.Seq != model[0] {
					return false
				}
				model = model[1:]
				b.Free()
			}
			if r.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDrainTo(t *testing.T) {
	r := New(16)
	pool := pkt.NewPool(64)
	for i := 0; i < 10; i++ {
		r.Push(pool.Get(64))
	}
	out := make([]*pkt.Buf, 4)
	if n := r.DrainTo(out); n != 4 {
		t.Fatalf("drain = %d", n)
	}
	if r.Len() != 6 {
		t.Fatalf("len = %d", r.Len())
	}
	for _, b := range out {
		b.Free()
	}
	big := make([]*pkt.Buf, 32)
	if n := r.DrainTo(big); n != 6 {
		t.Fatalf("drain rest = %d", n)
	}
	for _, b := range big[:6] {
		b.Free()
	}
}

func TestPeek(t *testing.T) {
	r := New(4)
	if r.Peek() != nil {
		t.Fatal("peek on empty")
	}
	pool := pkt.NewPool(64)
	b := pool.Get(64)
	b.Seq = 7
	r.Push(b)
	if got := r.Peek(); got == nil || got.Seq != 7 || r.Len() != 1 {
		t.Fatal("peek wrong")
	}
}

func TestNewPanicsOnBadCap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(0)
}

// TestNonPow2CapacityPreserved pins the pow2-backing-store refactor's
// contract: the logical capacity (and therefore drop behaviour) is exactly
// what New was given, not the rounded-up store size.
func TestNonPow2CapacityPreserved(t *testing.T) {
	r := New(6)
	if r.Cap() != 6 {
		t.Fatalf("cap = %d", r.Cap())
	}
	pool := pkt.NewPool(64)
	for i := 0; i < 9; i++ {
		b := pool.Get(64)
		if !r.Push(b) {
			b.Free()
		}
	}
	if r.Len() != 6 || r.Drops != 3 {
		t.Fatalf("len=%d drops=%d, rounding leaked into capacity", r.Len(), r.Drops)
	}
}

// TestPushBurstPartialAccept checks that PushBurst stops at the ring
// boundary without counting drops — the caller owns that decision.
func TestPushBurstPartialAccept(t *testing.T) {
	r := New(4)
	pool := pkt.NewPool(64)
	in := make([]*pkt.Buf, 7)
	for i := range in {
		in[i] = pool.Get(64)
		in[i].Seq = uint64(i)
	}
	if n := r.PushBurst(in); n != 4 {
		t.Fatalf("accepted = %d", n)
	}
	if r.Drops != 0 {
		t.Fatalf("PushBurst counted drops: %d", r.Drops)
	}
	for i := 0; i < 4; i++ {
		b := r.Pop()
		if b.Seq != uint64(i) {
			t.Fatalf("order broken at %d: seq %d", i, b.Seq)
		}
		b.Free()
	}
	for _, b := range in[4:] {
		b.Free()
	}
}

// TestDrainVisibleTo checks the virtio used-ring visibility gate: frames
// become poppable only once AvailAt passes, a not-yet-visible frame blocks
// everything behind it (FIFO), and the exact boundary AvailAt == now is
// visible.
func TestDrainVisibleTo(t *testing.T) {
	r := New(8)
	pool := pkt.NewPool(64)
	for i, at := range []int64{10, 20, 30} {
		b := pool.Get(64)
		b.Seq = uint64(i)
		b.AvailAt = units.Time(at)
		r.Push(b)
	}
	out := make([]*pkt.Buf, 8)
	if n := r.DrainVisibleTo(9, out); n != 0 {
		t.Fatalf("visible before AvailAt: %d", n)
	}
	if n := r.DrainVisibleTo(10, out); n != 1 || out[0].Seq != 0 {
		t.Fatalf("exact boundary: n=%d", n)
	}
	out[0].Free()
	// The head frame (AvailAt=20) gates the one behind it even at t=25.
	if n := r.DrainVisibleTo(25, out); n != 1 || out[0].Seq != 1 {
		t.Fatalf("FIFO gate: n=%d", n)
	}
	out[0].Free()
	if n := r.DrainVisibleTo(100, out); n != 1 || out[0].Seq != 2 {
		t.Fatalf("tail: n=%d", n)
	}
	out[0].Free()
}
