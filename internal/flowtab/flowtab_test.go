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

// TestMapResetForgetsKeys: Reset leaves the old keys in their slots, so
// every one of them must still miss, and reinserting them must count anew.
func TestMapResetForgetsKeys(t *testing.T) {
	m := NewMap[uint64, *int](4)
	const n = 100
	for i := uint64(0); i < n; i++ {
		v := int(i)
		m.Put(HashUint64(i), i, &v)
	}
	m.Reset()
	if m.Len() != 0 {
		t.Fatalf("Len after Reset = %d", m.Len())
	}
	for i := uint64(0); i < n; i++ {
		if _, ok := m.Get(HashUint64(i), i); ok {
			t.Fatalf("key %d survived Reset", i)
		}
	}
	for i, v := range m.vals {
		if v != nil {
			t.Fatalf("slot %d still holds a value after Reset", i)
		}
	}
	for i := uint64(n); i > 0; i-- {
		v := -int(i)
		m.Put(HashUint64(i), i, &v)
	}
	if m.Len() != n {
		t.Fatalf("Len after refill = %d, want %d", m.Len(), n)
	}
	if v, ok := m.Get(HashUint64(7), 7); !ok || *v != -7 {
		t.Fatalf("Get(7) after refill = %v, %v", v, ok)
	}
}

// TestMapReplaceDoesNotGrow: a full table replaces a present key in place;
// only inserting a new key grows it.
func TestMapReplaceDoesNotGrow(t *testing.T) {
	m := NewMap[uint64, int](4)
	size := len(m.keys)
	for i := uint64(0); i < uint64(size/2); i++ {
		m.Put(HashUint64(i), i, int(i))
	}
	if len(m.keys) != size {
		t.Fatalf("filling to half grew the table %d → %d", size, len(m.keys))
	}
	m.Put(HashUint64(5), 5, 50)
	if v, _ := m.Get(HashUint64(5), 5); v != 50 || len(m.keys) != size || m.Len() != size/2 {
		t.Fatalf("replace at the threshold: Get(5) = %d, size %d → %d, Len %d", v, size, len(m.keys), m.Len())
	}
	m.Put(HashUint64(99), 99, 1)
	if len(m.keys) != 2*size || m.Len() != size/2+1 {
		t.Fatalf("insert at the threshold: size %d → %d, Len %d", size, len(m.keys), m.Len())
	}
	for i := uint64(0); i < uint64(size/2); i++ {
		if _, ok := m.Get(HashUint64(i), i); !ok {
			t.Fatalf("key %d lost when the table grew", i)
		}
	}
}

// TestCacheResetMatchesFresh: after Reset every old key misses, and a
// bucket refilled past its ways evicts in exactly the order a fresh cache
// does, although the dead slots still hold the old keys.
func TestCacheResetMatchesFresh(t *testing.T) {
	used := NewCache[uint64, int](16) // two buckets of 8 ways
	for i := uint64(0); i < 40; i++ {
		used.Put(i%2, i, int(i)) // both buckets full, both hands moved
	}
	used.Reset()
	if used.Len() != 0 {
		t.Fatalf("Len after Reset = %d", used.Len())
	}
	for i := uint64(0); i < 40; i++ {
		if _, ok := used.Get(i%2, i); ok {
			t.Fatalf("key %d survived Reset", i)
		}
	}
	for i, v := range used.vals {
		if v != 0 {
			t.Fatalf("slot %d still holds a value after Reset", i)
		}
	}
	fresh := NewCache[uint64, int](16)
	// Old keys and new ones into bucket 0, past its 8 ways.
	for i := uint64(0); i < 20; i++ {
		k := 2 * (i * 7 % 20)
		evU, evF := used.Put(0, k, int(i)), fresh.Put(0, k, int(i))
		if evU != evF {
			t.Fatalf("insert %d (key %d): evicted %v after Reset, %v fresh", i, k, evU, evF)
		}
		for j := uint64(0); j <= 40; j += 2 {
			vU, okU := used.Get(0, j)
			vF, okF := fresh.Get(0, j)
			if okU != okF || vU != vF {
				t.Fatalf("after insert %d, key %d: (%d, %v) after Reset, (%d, %v) fresh", i, j, vU, okU, vF, okF)
			}
		}
	}
	if used.Len() != fresh.Len() {
		t.Fatalf("Len %d after Reset, %d fresh", used.Len(), fresh.Len())
	}
}

// TestCacheTagsMatchKeyCompare holds the tagged Cache to a reference that
// finds keys by comparing them alone, over a random mix of Gets, Puts
// (replacing and evicting) and Resets in a 4-bucket cache where each key's
// hash draws its bucket and its tag from a few values, so distinct keys
// share buckets and tags all the time.
func TestCacheTagsMatchKeyCompare(t *testing.T) {
	type slot struct {
		key, val uint64
		live     bool
	}
	const buckets = 4
	var ref [buckets * cacheWays]slot
	var hands [buckets]int
	c := NewCache[uint64, uint64](buckets * cacheWays)
	rng := uint64(1)
	next := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	// hash gives key k a bucket from its low bits and one of three tags
	// from its next ones: keys of a bucket collide on their tags too.
	hash := func(k uint64) uint64 { return k%buckets | (k/buckets%3)<<61 }
	for step := 0; step < 200000; step++ {
		k := next(96)
		h, base := hash(k), int(hash(k)%buckets)*cacheWays
		switch op := next(100); {
		case op == 0:
			c.Reset()
			ref, hands = [buckets * cacheWays]slot{}, [buckets]int{}
		case op < 50:
			want, ok := uint64(0), false
			for _, s := range ref[base : base+cacheWays] {
				if s.live && s.key == k {
					want, ok = s.val, true
				}
			}
			if got, gotOK := c.Get(h, k); got != want || gotOK != ok {
				t.Fatalf("step %d: Get(%d) = %d, %v; reference %d, %v", step, k, got, gotOK, want, ok)
			}
		default:
			v := uint64(step)
			evicted, at := false, -1
			for i := base; i < base+cacheWays; i++ {
				if ref[i].live && ref[i].key == k {
					at = i
				}
			}
			if at < 0 {
				for i := base; i < base+cacheWays && at < 0; i++ {
					if !ref[i].live {
						at = i
					}
				}
			}
			if at < 0 {
				b := base / cacheWays
				at, evicted = base+hands[b], true
				hands[b] = (hands[b] + 1) % cacheWays
			}
			ref[at] = slot{k, v, true}
			if got := c.Put(h, k, v); got != evicted {
				t.Fatalf("step %d: Put(%d) evicted %v, reference %v", step, k, got, evicted)
			}
		}
	}
}
