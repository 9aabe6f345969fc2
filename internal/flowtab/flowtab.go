// Package flowtab provides the open-addressed hash tables backing the
// switch data planes' host hot paths: a growable linear-probe map (OvS
// megaflow cache) and a fixed-capacity
// set-associative cache with deterministic clock-hand eviction (OvS EMC).
//
// These replace Go maps on per-frame paths. The win is host-side only —
// no interface-boxed hash calls, no map-header indirection, power-of-two
// masking instead of modulo — and, for the cache, eviction that is a pure
// function of the insertion sequence. Simulated lookup cost is charged by
// the callers exactly as before; nothing here touches a cost.Meter.
package flowtab

// HashBytes is 64-bit FNV-1a over b.
func HashBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// HashUint64 is a SplitMix64-style finalizer, used to spread dense keys
// (MAC keys, port numbers) across the table.
func HashUint64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Map is a growable open-addressed hash map with linear probing. It has no
// deletion (callers reset wholesale — exactly how the switch caches are
// invalidated), so probe chains never contain tombstones. The caller
// supplies the key's hash to both Get and Put; supplying different hashes
// for equal keys is a caller bug.
type Map[K comparable, V any] struct {
	hashes []uint64
	keys   []K
	vals   []V
	live   []bool
	mask   uint64
	n      int
}

// NewMap returns a map pre-sized for hint entries.
func NewMap[K comparable, V any](hint int) *Map[K, V] {
	size := 16
	for size < hint*2 {
		size <<= 1
	}
	m := &Map[K, V]{}
	m.alloc(size)
	return m
}

func (m *Map[K, V]) alloc(size int) {
	m.hashes = make([]uint64, size)
	m.keys = make([]K, size)
	m.vals = make([]V, size)
	m.live = make([]bool, size)
	m.mask = uint64(size - 1)
	m.n = 0
}

// Get returns the value stored for k, if any.
func (m *Map[K, V]) Get(h uint64, k K) (V, bool) {
	i := h & m.mask
	for m.live[i] {
		if m.hashes[i] == h && m.keys[i] == k {
			return m.vals[i], true
		}
		i = (i + 1) & m.mask
	}
	var zero V
	return zero, false
}

// Put inserts or replaces the value for k. Only an insert can grow the
// table.
func (m *Map[K, V]) Put(h uint64, k K, v V) {
	i := h & m.mask
	for m.live[i] {
		if m.hashes[i] == h && m.keys[i] == k {
			m.vals[i] = v
			return
		}
		i = (i + 1) & m.mask
	}
	if (m.n+1)*2 > len(m.keys) {
		m.grow()
		i = h & m.mask
		for m.live[i] {
			i = (i + 1) & m.mask
		}
	}
	m.live[i] = true
	m.hashes[i] = h
	m.keys[i] = k
	m.vals[i] = v
	m.n++
}

func (m *Map[K, V]) grow() {
	oh, ok, ov, ol := m.hashes, m.keys, m.vals, m.live
	m.alloc(len(ok) * 2)
	for i, l := range ol {
		if !l {
			continue
		}
		j := oh[i] & m.mask
		for m.live[j] {
			j = (j + 1) & m.mask
		}
		m.live[j] = true
		m.hashes[j] = oh[i]
		m.keys[j] = ok[i]
		m.vals[j] = ov[i]
		m.n++
	}
}

// Len returns the number of live entries.
func (m *Map[K, V]) Len() int { return m.n }

// Reset drops every entry, keeping the allocated capacity. The keys stay
// as they were: no probe reads the key of a dead slot, and an insert
// overwrites it. The values are cleared so that dead slots pin nothing.
func (m *Map[K, V]) Reset() {
	if m.n == 0 {
		return
	}
	clear(m.live)
	clear(m.vals)
	m.n = 0
}

// cacheWays is the set associativity of Cache. Eight ways over power-of-two
// bucket counts keeps conflict eviction negligible at the golden workloads'
// flow counts while bounding every probe to one cache-line-ish scan.
const cacheWays = 8

// Cache is a fixed-capacity set-associative hash cache with per-bucket
// clock-hand eviction. Unlike Map it never grows: inserting into a full
// bucket evicts the entry under the bucket's clock hand and advances the
// hand — a deterministic function of the insertion sequence, replacing the
// randomized map-iteration eviction the OvS EMC model used to have.
//
// Each slot keeps a one-byte tag of its key's hash: 0 while the slot is
// empty, otherwise the hash's top seven bits with the top bit set. A probe
// compares the tag before the key, so a way holding another key rarely
// costs a key comparison. Equal keys have equal hashes and so equal tags,
// so every lookup and eviction is what comparing keys alone gives.
type Cache[K comparable, V any] struct {
	keys []K
	vals []V
	tags []uint8
	hand []uint8
	bmsk uint64 // buckets - 1
	n    int
}

// NewCache returns a cache with at least capacity slots (rounded up to a
// power-of-two bucket count times cacheWays).
func NewCache[K comparable, V any](capacity int) *Cache[K, V] {
	buckets := 1
	for buckets*cacheWays < capacity {
		buckets <<= 1
	}
	return &Cache[K, V]{
		keys: make([]K, buckets*cacheWays),
		vals: make([]V, buckets*cacheWays),
		tags: make([]uint8, buckets*cacheWays),
		hand: make([]uint8, buckets),
		bmsk: uint64(buckets - 1),
	}
}

// cacheTag is a live slot's tag for a key of hash h: never 0, the empty
// slot's tag. The bucket comes from h's low bits, the tag from its high
// ones.
func cacheTag(h uint64) uint8 { return uint8(h>>56) | 0x80 }

// Get returns the value stored for k, if any.
func (c *Cache[K, V]) Get(h uint64, k K) (V, bool) {
	base, tag := int(h&c.bmsk)*cacheWays, cacheTag(h)
	for i := base; i < base+cacheWays; i++ {
		if c.tags[i] == tag && c.keys[i] == k {
			return c.vals[i], true
		}
	}
	var zero V
	return zero, false
}

// Put inserts or replaces the value for k. It reports whether a live entry
// was evicted to make room.
func (c *Cache[K, V]) Put(h uint64, k K, v V) bool {
	b, tag := int(h&c.bmsk), cacheTag(h)
	base := b * cacheWays
	free := -1
	for i := base; i < base+cacheWays; i++ {
		if c.tags[i] == 0 {
			if free < 0 {
				free = i
			}
			continue
		}
		if c.tags[i] == tag && c.keys[i] == k {
			c.vals[i] = v
			return false
		}
	}
	if free >= 0 {
		c.tags[free] = tag
		c.keys[free] = k
		c.vals[free] = v
		c.n++
		return false
	}
	victim := base + int(c.hand[b])
	c.hand[b] = (c.hand[b] + 1) % cacheWays
	c.tags[victim] = tag
	c.keys[victim] = k
	c.vals[victim] = v
	return true
}

// Len returns the number of live entries.
func (c *Cache[K, V]) Len() int { return c.n }

// Capacity returns the total slot count.
func (c *Cache[K, V]) Capacity() int { return len(c.keys) }

// Reset drops every entry and rewinds the clock hands, keeping the
// allocated capacity. As in Map.Reset, the keys stay and the values are
// cleared: a lookup or insert reads a slot's key only while it is live.
func (c *Cache[K, V]) Reset() {
	if c.n == 0 {
		return
	}
	clear(c.tags)
	clear(c.hand)
	clear(c.vals)
	c.n = 0
}
