package l2

import (
	"repro/internal/pkt"
	"repro/internal/units"
)

// referenceMACTable is the original map-based learning table, kept
// compiled as the behavioural reference for the open-addressed MACTable.
// The two agree exactly whenever eviction never has to break a lastSeen
// tie (the map version breaks ties by randomized iteration order, the
// open-addressed one by slot index); the equivalence test drives both with
// strictly increasing timestamps so every eviction victim is unique.
type referenceMACTable struct {
	entries map[pkt.MAC]refEntry
	cap     int

	Learns, Hits, Misses, Evictions int64
}

type refEntry struct {
	port     int
	lastSeen units.Time
}

func newReferenceMACTable(capacity int) *referenceMACTable {
	if capacity <= 0 {
		panic("l2: non-positive capacity")
	}
	return &referenceMACTable{entries: make(map[pkt.MAC]refEntry, capacity), cap: capacity}
}

func (t *referenceMACTable) Learn(mac pkt.MAC, port int, now units.Time) {
	if mac.IsMulticast() {
		return
	}
	if _, ok := t.entries[mac]; !ok {
		if len(t.entries) >= t.cap {
			t.evictOldest()
		}
		t.Learns++
	}
	t.entries[mac] = refEntry{port: port, lastSeen: now}
}

func (t *referenceMACTable) evictOldest() {
	var oldest pkt.MAC
	var oldestAt units.Time = 1<<63 - 1
	for m, e := range t.entries {
		if e.lastSeen < oldestAt {
			oldest, oldestAt = m, e.lastSeen
		}
	}
	delete(t.entries, oldest)
	t.Evictions++
}

func (t *referenceMACTable) Lookup(mac pkt.MAC) (port int, ok bool) {
	if mac.IsMulticast() {
		t.Misses++
		return 0, false
	}
	e, found := t.entries[mac]
	if !found {
		t.Misses++
		return 0, false
	}
	t.Hits++
	return e.port, true
}

func (t *referenceMACTable) Len() int { return len(t.entries) }
