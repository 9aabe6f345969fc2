package l2

import (
	"testing"
	"testing/quick"

	"repro/internal/pkt"
	"repro/internal/units"
)

func mac(i byte) pkt.MAC { return pkt.MAC{2, 0, 0, 0, 0, i} }

func TestLearnLookup(t *testing.T) {
	tb := NewMACTable(16)
	tb.Learn(mac(1), 3, 0)
	port, ok := tb.Lookup(mac(1))
	if !ok || port != 3 {
		t.Fatalf("lookup = %d, %v", port, ok)
	}
	if _, ok := tb.Lookup(mac(2)); ok {
		t.Fatal("unknown MAC found")
	}
	if tb.Hits != 1 || tb.Misses != 1 || tb.Learns != 1 {
		t.Fatalf("counters: %+v", tb)
	}
}

func TestStationMove(t *testing.T) {
	tb := NewMACTable(16)
	tb.Learn(mac(1), 1, 0)
	tb.Learn(mac(1), 2, units.Microsecond) // station moved
	if port, _ := tb.Lookup(mac(1)); port != 2 {
		t.Fatalf("port = %d after move", port)
	}
	if tb.Learns != 1 {
		t.Fatalf("re-learn counted as new: %d", tb.Learns)
	}
	if tb.Len() != 1 {
		t.Fatalf("len = %d", tb.Len())
	}
}

func TestCapacityEviction(t *testing.T) {
	tb := NewMACTable(4)
	for i := byte(0); i < 4; i++ {
		tb.Learn(mac(i), int(i), units.Time(i)*units.Microsecond)
	}
	// Table full; learning a 5th evicts the oldest (mac 0).
	tb.Learn(mac(10), 9, units.Second)
	if tb.Len() != 4 || tb.Evictions != 1 {
		t.Fatalf("len=%d evictions=%d", tb.Len(), tb.Evictions)
	}
	if _, ok := tb.Lookup(mac(0)); ok {
		t.Fatal("oldest entry survived eviction")
	}
	if port, ok := tb.Lookup(mac(10)); !ok || port != 9 {
		t.Fatal("new entry missing")
	}
}

func TestMulticastNeverLearnedOrFound(t *testing.T) {
	tb := NewMACTable(4)
	tb.Learn(pkt.Broadcast, 1, 0)
	if tb.Len() != 0 {
		t.Fatal("broadcast learned")
	}
	if _, ok := tb.Lookup(pkt.Broadcast); ok {
		t.Fatal("broadcast lookup hit")
	}
}

// Property: after any sequence of learns, lookup returns the port of the
// most recent learn for that MAC (within capacity).
func TestPropertyMostRecentLearnWins(t *testing.T) {
	f := func(ops []struct {
		M    byte
		Port uint8
	}) bool {
		tb := NewMACTable(1024)
		last := map[pkt.MAC]int{}
		for i, op := range ops {
			m := mac(op.M)
			tb.Learn(m, int(op.Port), units.Time(i))
			last[m] = int(op.Port)
		}
		for m, want := range last {
			got, ok := tb.Lookup(m)
			if !ok || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
