package l2

import (
	"math/rand"
	"testing"

	"repro/internal/pkt"
	"repro/internal/units"
)

// TestMACTableMatchesReference drives the open-addressed table and the
// map-based reference with identical randomized Learn/Lookup sequences —
// including capacity evictions — and asserts identical
// results and counters at every step. Timestamps strictly increase so
// every eviction victim is unique (the only regime where the reference's
// randomized tie-break is deterministic).
func TestMACTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, cfg := range []struct {
		name string
		cap  int
		macs int
		ops  int
	}{
		{"small-evicting", 8, 64, 4000},
		{"large-no-evict", 1024, 256, 4000},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			got := NewMACTable(cfg.cap)
			want := newReferenceMACTable(cfg.cap)
			now := units.Time(0)
			for i := 0; i < cfg.ops; i++ {
				now += units.Time(1 + rng.Intn(int(10*units.Microsecond)))
				id := rng.Intn(cfg.macs)
				m := pkt.MAC{2, 0, 0, 0, byte(id >> 8), byte(id)}
				if rng.Intn(100) < 2 {
					m[0] |= 1 // occasional multicast source/dst
				}
				if rng.Intn(2) == 0 {
					port := rng.Intn(16)
					got.Learn(m, port, now)
					want.Learn(m, port, now)
				} else {
					gp, gok := got.Lookup(m)
					wp, wok := want.Lookup(m)
					if gp != wp || gok != wok {
						t.Fatalf("op %d: Lookup(%v) = (%d,%v), reference (%d,%v)", i, m, gp, gok, wp, wok)
					}
				}
				if got.Len() != want.Len() {
					t.Fatalf("op %d: Len = %d, reference %d", i, got.Len(), want.Len())
				}
			}
			if got.Learns != want.Learns || got.Hits != want.Hits ||
				got.Misses != want.Misses || got.Evictions != want.Evictions {
				t.Fatalf("counters diverged: got {L:%d H:%d M:%d E:%d}, reference {L:%d H:%d M:%d E:%d}",
					got.Learns, got.Hits, got.Misses, got.Evictions,
					want.Learns, want.Hits, want.Misses, want.Evictions)
			}
		})
	}
}
