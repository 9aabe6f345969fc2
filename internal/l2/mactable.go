// Package l2 provides the MAC learning table of VALE's L2 bridges.
package l2

import (
	"repro/internal/flowtab"
	"repro/internal/pkt"
	"repro/internal/units"
)

// MACTable is a bounded source-learning table. It is an
// open-addressed linear-probe table (backward-shift deletion, no
// tombstones) sized to at most half load, so the per-frame Learn/Lookup
// pair the L2 planes issue costs two short probe scans and no map-header
// or hash-interface overhead. Eviction picks the globally oldest entry
// with a deterministic tie-break (lowest slot index), unlike the previous
// map-based table whose ties followed Go's randomized map iteration.
type MACTable struct {
	hashes []uint64
	macs   []pkt.MAC
	ports  []int32
	seen   []units.Time
	live   []bool
	mask   uint64
	n      int
	cap    int

	// Learns, Hits, Misses, Evictions count table activity.
	Learns, Hits, Misses, Evictions int64
}

// NewMACTable returns a table bounded to capacity entries; learning past
// capacity evicts the entry seen longest ago.
func NewMACTable(capacity int) *MACTable {
	if capacity <= 0 {
		panic("l2: non-positive capacity")
	}
	size := 16
	for size < capacity*2 {
		size <<= 1
	}
	return &MACTable{
		hashes: make([]uint64, size),
		macs:   make([]pkt.MAC, size),
		ports:  make([]int32, size),
		seen:   make([]units.Time, size),
		live:   make([]bool, size),
		mask:   uint64(size - 1),
		cap:    capacity,
	}
}

func macHash(mac pkt.MAC) uint64 {
	v := uint64(mac[0])<<40 | uint64(mac[1])<<32 | uint64(mac[2])<<24 |
		uint64(mac[3])<<16 | uint64(mac[4])<<8 | uint64(mac[5])
	return flowtab.HashUint64(v)
}

// Learn records that mac was seen as a source on port at time now.
func (t *MACTable) Learn(mac pkt.MAC, port int, now units.Time) {
	if mac.IsMulticast() {
		return // source multicast is never learned
	}
	h := macHash(mac)
	i := h & t.mask
	for t.live[i] {
		if t.hashes[i] == h && t.macs[i] == mac {
			t.ports[i] = int32(port)
			t.seen[i] = now
			return
		}
		i = (i + 1) & t.mask
	}
	if t.n >= t.cap {
		t.evictOldest()
		// The backward shift may have moved entries across the free
		// slot we found; re-probe.
		i = h & t.mask
		for t.live[i] {
			i = (i + 1) & t.mask
		}
	}
	t.Learns++
	t.live[i] = true
	t.hashes[i] = h
	t.macs[i] = mac
	t.ports[i] = int32(port)
	t.seen[i] = now
	t.n++
}

func (t *MACTable) evictOldest() {
	oldest := -1
	oldestAt := units.Time(1<<63 - 1)
	for i, l := range t.live {
		if l && t.seen[i] < oldestAt {
			oldest, oldestAt = i, t.seen[i]
		}
	}
	t.deleteSlot(uint64(oldest))
	t.Evictions++
}

// deleteSlot empties slot i and backward-shifts any displaced entries in
// its probe chain so future probes never cross a hole.
func (t *MACTable) deleteSlot(i uint64) {
	t.n--
	for {
		t.live[i] = false
		j := i
		for {
			j = (j + 1) & t.mask
			if !t.live[j] {
				return
			}
			h := t.hashes[j] & t.mask
			// Slot j may fill the hole at i only if its home slot h is
			// not cyclically inside (i, j] — otherwise moving it would
			// break its own probe chain.
			var blocked bool
			if i <= j {
				blocked = h > i && h <= j
			} else {
				blocked = h > i || h <= j
			}
			if !blocked {
				break
			}
		}
		t.live[i] = true
		t.hashes[i] = t.hashes[j]
		t.macs[i] = t.macs[j]
		t.ports[i] = t.ports[j]
		t.seen[i] = t.seen[j]
		i = j
	}
}

// Lookup returns the port mac was learned on, or ok=false for a miss
// (unknown, or broadcast/multicast — which must flood).
func (t *MACTable) Lookup(mac pkt.MAC) (port int, ok bool) {
	if mac.IsMulticast() {
		t.Misses++
		return 0, false
	}
	h := macHash(mac)
	i := h & t.mask
	for t.live[i] {
		if t.hashes[i] == h && t.macs[i] == mac {
			t.Hits++
			return int(t.ports[i]), true
		}
		i = (i + 1) & t.mask
	}
	t.Misses++
	return 0, false
}

// Len returns the number of live entries.
func (t *MACTable) Len() int { return t.n }
