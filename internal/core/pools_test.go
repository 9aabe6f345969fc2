package core

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/nic"
	"repro/internal/pkt"
	"repro/internal/units"
)

// TestSecondCellLeasesGrownPools: a cell releases its packet pools only
// once its capture has stopped, and the next identical cell leases every
// pool back in the role that grew it — host, generator, each guest — and
// carves no new header slab.
func TestSecondCellLeasesGrownPools(t *testing.T) {
	type lease struct {
		pool      *pkt.Pool
		live, cap int
	}
	run := func(capture string) []lease {
		t.Helper()
		cfg := Config{Switch: "vpp", Scenario: Loopback, Chain: 2, FrameLen: 64,
			Warmup: 500 * units.Microsecond, Duration: 2 * units.Millisecond, CapturePath: capture}
		var got []lease
		_, err := measure(cfg, 1, func(tb *testbed, w int, _ tally) {
			if w < 1 {
				return
			}
			for _, p := range leased[*pkt.Pool](tb) {
				got = append(got, lease{p, p.Live(), p.Cap()})
			}
			if stop := tb.stopCapture; stop != nil {
				tb.stopCapture = func() {
					for i, p := range leased[*pkt.Pool](tb) {
						if p.Live() != got[i].live {
							t.Errorf("pool %d holds %d live buffers when the capture stops, %d at the window's end: released first", i, p.Live(), got[i].live)
						}
					}
					stop()
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	first := run(filepath.Join(t.TempDir(), "first.pcap"))
	if len(first) != 4 {
		t.Fatalf("loopback-2 leased %d pools, want host, generator and two guests", len(first))
	}
	held := 0
	for _, l := range first {
		held += l.live
	}
	if held == 0 {
		t.Fatal("no pool holds a buffer at the window's end: the capture check sees nothing")
	}
	second := run("")
	for i := range first {
		switch {
		case second[i].pool != first[i].pool:
			t.Errorf("pool %d: the second cell leased another pool in this role", i)
		case second[i].cap != first[i].cap:
			t.Errorf("pool %d: the second cell carved a new header slab (%d headers, %d after the first cell)", i, second[i].cap, first[i].cap)
		}
	}
}

// leased returns the testbed's leased parts of type T, in acquisition
// order.
func leased[T any](tb *testbed) []T {
	var ps []T
	for _, l := range tb.leases {
		if p, ok := l.(T); ok {
			ps = append(ps, p)
		}
	}
	return ps
}

// rxBacking returns the array and capacity behind a port's RX queue.
func rxBacking(p *nic.Port) (uintptr, int) {
	q := reflect.ValueOf(p).Elem().FieldByName("rxq")
	return q.Pointer(), q.Cap()
}

// TestSecondCellLeasesRxQueue: a multi-flow cell queues one entry per
// frame in flight on each SUT port, and a second identical cell leases
// each port's grown backing back, port for port, so no RX queue grows
// again. The generator-side ports hand every arrival to their sinks and
// lease none.
func TestSecondCellLeasesRxQueue(t *testing.T) {
	type backing struct {
		ptr uintptr
		cap int
	}
	run := func() []backing {
		t.Helper()
		cfg := Config{Switch: "ovs", Scenario: P2P, FrameLen: 64, Bidir: true,
			Flows: 8192, ZipfSkew: 1.1,
			Warmup: 500 * units.Microsecond, Duration: 2 * units.Millisecond}
		var got []backing
		_, err := measure(cfg, 1, func(tb *testbed, w int, _ tally) {
			if w < 1 {
				return
			}
			for _, p := range leased[*nic.Port](tb) {
				ptr, c := rxBacking(p)
				got = append(got, backing{ptr, c})
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	first := run()
	if len(first) != 4 {
		t.Fatalf("bidirectional p2p leased %d ports, want a SUT and a generator port per direction", len(first))
	}
	for i, b := range first {
		if sut := i%2 == 0; sut != (b.cap > 0) {
			t.Fatalf("port %d (SUT side %v) has an RX queue of capacity %d", i, sut, b.cap)
		}
	}
	second := run()
	for i := range first {
		if second[i] != first[i] {
			t.Errorf("port %d: RX queue backing %#x of capacity %d, %#x of %d after the first cell: it grew again",
				i, second[i].ptr, second[i].cap, first[i].ptr, first[i].cap)
		}
	}
}
