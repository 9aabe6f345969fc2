package flowtab

import "testing"

func TestMapBasic(t *testing.T) {
	m := NewMap[uint64, int](4)
	const n = 10_000
	for i := uint64(0); i < n; i++ {
		m.Put(HashUint64(i), i, int(i)*3)
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	for i := uint64(0); i < n; i++ {
		v, ok := m.Get(HashUint64(i), i)
		if !ok || v != int(i)*3 {
			t.Fatalf("Get(%d) = %d, %v; want %d, true", i, v, ok, int(i)*3)
		}
	}
	if _, ok := m.Get(HashUint64(n+1), n+1); ok {
		t.Fatal("Get of absent key succeeded")
	}
	// Updates replace in place.
	m.Put(HashUint64(7), 7, -1)
	if v, _ := m.Get(HashUint64(7), 7); v != -1 {
		t.Fatalf("after update Get(7) = %d, want -1", v)
	}
	if m.Len() != n {
		t.Fatalf("Len after update = %d, want %d", m.Len(), n)
	}
	m.Reset()
	if m.Len() != 0 {
		t.Fatalf("Len after Reset = %d", m.Len())
	}
	if _, ok := m.Get(HashUint64(3), 3); ok {
		t.Fatal("Get succeeded after Reset")
	}
}

// TestMapCollidingHashes forces every key onto one probe chain: linear
// probing must still distinguish keys by equality.
func TestMapCollidingHashes(t *testing.T) {
	m := NewMap[uint64, int](4)
	for i := uint64(0); i < 50; i++ {
		m.Put(42, i, int(i))
	}
	for i := uint64(0); i < 50; i++ {
		v, ok := m.Get(42, i)
		if !ok || v != int(i) {
			t.Fatalf("Get(%d) = %d, %v", i, v, ok)
		}
	}
}

func TestCacheBasic(t *testing.T) {
	c := NewCache[uint64, int](64)
	if c.Capacity() != 64 {
		t.Fatalf("Capacity = %d, want 64", c.Capacity())
	}
	// Hash i spreads keys exactly 8 per bucket: the cache fills to
	// capacity with no conflict eviction.
	for i := uint64(0); i < 64; i++ {
		if c.Put(i, i, int(i)) {
			t.Fatalf("unexpected eviction inserting key %d", i)
		}
	}
	for i := uint64(0); i < 64; i++ {
		if v, ok := c.Get(i, i); !ok || v != int(i) {
			t.Fatalf("Get(%d) = %d, %v", i, v, ok)
		}
	}
	c.Put(3, 3, 99)
	if v, _ := c.Get(3, 3); v != 99 {
		t.Fatalf("update did not replace: got %d", v)
	}
	if c.Len() != 64 {
		t.Fatalf("Len = %d, want 64", c.Len())
	}
	c.Reset()
	if c.Len() != 0 {
		t.Fatalf("Len after Reset = %d", c.Len())
	}
}

// TestCacheClockHandEviction pins the deterministic eviction order: keys
// sharing one bucket evict in insertion (clock) order, round-robin.
func TestCacheClockHandEviction(t *testing.T) {
	c := NewCache[uint64, int](8) // one bucket of 8 ways
	for i := uint64(0); i < 8; i++ {
		if c.Put(0, i, int(i)) {
			t.Fatalf("eviction while filling, key %d", i)
		}
	}
	// Ninth insert must evict way 0 (hand starts at 0), tenth way 1, ...
	for i := uint64(8); i < 12; i++ {
		if !c.Put(0, i, int(i)) {
			t.Fatalf("insert %d did not evict", i)
		}
		if _, ok := c.Get(0, i-8); ok {
			t.Fatalf("key %d survived its clock-hand eviction", i-8)
		}
		if _, ok := c.Get(0, i); !ok {
			t.Fatalf("key %d missing after insert", i)
		}
	}
	// Two identically-built caches agree on every surviving key.
	a, b := NewCache[uint64, int](8), NewCache[uint64, int](8)
	for i := uint64(0); i < 100; i++ {
		a.Put(0, i, int(i))
		b.Put(0, i, int(i))
	}
	for i := uint64(0); i < 100; i++ {
		_, okA := a.Get(0, i)
		_, okB := b.Get(0, i)
		if okA != okB {
			t.Fatalf("caches diverged on key %d: %v vs %v", i, okA, okB)
		}
	}
}
