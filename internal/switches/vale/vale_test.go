package vale

import (
	"testing"

	"repro/internal/pkt"
	"repro/internal/switches/switchdef"
	"repro/internal/switches/switchtest"
)

func newSUT(t *testing.T, ports int) (*Switch, []*switchtest.FakePort, switchdef.Env) {
	t.Helper()
	env := switchtest.Env()
	sw := New(env)
	fps := make([]*switchtest.FakePort, ports)
	for i := range fps {
		fps[i] = switchtest.NewFakePort("p")
		sw.AddPort(fps[i])
	}
	return sw, fps, env
}

func TestLearningBridgeForwards(t *testing.T) {
	sw, fps, env := newSUT(t, 2)
	if err := sw.CrossConnect(0, 1); err != nil {
		t.Fatal(err)
	}
	m := switchtest.Meter(env)
	a, b := pkt.MAC{2, 0, 0, 0, 0, 0xa}, pkt.MAC{2, 0, 0, 0, 0, 0xb}
	// Unknown dst floods (to the only other port).
	fps[0].In = append(fps[0].In, switchtest.Frame(env.Pool, a, b, 64))
	switchtest.PollUntilIdle(sw, m, 0)
	if len(fps[1].Out) != 1 {
		t.Fatalf("out = %d", len(fps[1].Out))
	}
	// Reply: a is learned, unicast.
	fps[1].In = append(fps[1].In, switchtest.Frame(env.Pool, b, a, 64))
	switchtest.PollUntilIdle(sw, m, 1)
	if len(fps[0].Out) != 1 {
		t.Fatalf("reverse out = %d", len(fps[0].Out))
	}
	if n := sw.bridges[0].mac.Len(); n != 2 {
		t.Fatalf("learned = %d", n)
	}
}

func TestInterPortCopySemantics(t *testing.T) {
	// VALE copies between ports: the delivered buffer must be a distinct
	// allocation with identical bytes (memory isolation, paper §3.5).
	sw, fps, env := newSUT(t, 2)
	_ = sw.CrossConnect(0, 1)
	m := switchtest.Meter(env)
	in := switchtest.Frame(env.Pool, pkt.MAC{2, 0, 0, 0, 0, 1}, pkt.MAC{2, 0, 0, 0, 0, 2}, 64)
	fps[0].In = append(fps[0].In, in)
	switchtest.PollUntilIdle(sw, m, 0)
	out := fps[1].Out[0]
	if out == in {
		t.Fatal("buffer passed by reference, not copied")
	}
	if string(out.Bytes()) != string(in.Bytes()) {
		t.Fatal("copy corrupted payload")
	}
}

func TestPortExclusivity(t *testing.T) {
	sw, _, _ := newSUT(t, 3)
	if err := sw.CrossConnect(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := sw.CrossConnect(1, 2); err == nil {
		t.Fatal("port reuse across bridges accepted")
	}
	if err := sw.CrossConnect(2, 9); err == nil {
		t.Fatal("bad port accepted")
	}
	if err := sw.CrossConnect(2, 2); err == nil {
		t.Fatal("port bridged to itself accepted")
	}
	if len(sw.bridges) != 1 {
		t.Fatalf("rejected cross-connects left %d bridges", len(sw.bridges))
	}
}

func TestMultipleBridgeInstances(t *testing.T) {
	// The loopback scenario needs N+1 independent VALE instances on one
	// core: traffic on bridge 0 must never leak to bridge 1.
	sw, fps, env := newSUT(t, 4)
	_ = sw.CrossConnect(0, 1)
	_ = sw.CrossConnect(2, 3)
	if len(sw.bridges) != 2 {
		t.Fatalf("bridges = %d", len(sw.bridges))
	}
	m := switchtest.Meter(env)
	fps[0].In = append(fps[0].In, switchtest.Frame(env.Pool, pkt.MAC{2, 0, 0, 0, 0, 1}, pkt.MAC{2, 0, 0, 0, 0, 2}, 64))
	switchtest.PollUntilIdle(sw, m, 0)
	if len(fps[1].Out) != 1 || len(fps[2].Out) != 0 || len(fps[3].Out) != 0 {
		t.Fatalf("leak: %d %d %d", len(fps[1].Out), len(fps[2].Out), len(fps[3].Out))
	}
}

func TestHairpinDrop(t *testing.T) {
	sw, fps, env := newSUT(t, 2)
	_ = sw.CrossConnect(0, 1)
	m := switchtest.Meter(env)
	a := pkt.MAC{2, 0, 0, 0, 0, 0xa}
	fps[0].In = append(fps[0].In, switchtest.Frame(env.Pool, a, pkt.Broadcast, 64))
	switchtest.PollUntilIdle(sw, m, 0)
	fps[1].Out = nil
	// Destination learned on the ingress port itself: drop.
	fps[0].In = append(fps[0].In, switchtest.Frame(env.Pool, pkt.MAC{2, 0, 0, 0, 0, 0xb}, a, 64))
	switchtest.PollUntilIdle(sw, m, 1)
	if len(fps[1].Out) != 0 {
		t.Fatal("hairpin forwarded")
	}
	if env.Pool.Live() != 1 { // only the first (flooded) frame is live
		t.Fatalf("live = %d", env.Pool.Live())
	}
}

func TestCopyCostScalesWithFrameSize(t *testing.T) {
	sw, fps, env := newSUT(t, 2)
	_ = sw.CrossConnect(0, 1)
	m := switchtest.Meter(env)
	fps[0].In = append(fps[0].In, switchtest.Frame(env.Pool, pkt.MAC{2, 0, 0, 0, 0, 1}, pkt.MAC{2, 0, 0, 0, 0, 2}, 64))
	sw.Poll(0, m)
	small := m.Drain()
	fps[0].In = append(fps[0].In, switchtest.Frame(env.Pool, pkt.MAC{2, 0, 0, 0, 0, 1}, pkt.MAC{2, 0, 0, 0, 0, 2}, 1024))
	sw.Poll(0, m)
	big := m.Drain()
	if big <= small {
		t.Fatalf("1024B (%v) not costlier than 64B (%v)", big, small)
	}
}

func TestInfoTaxonomy(t *testing.T) {
	sw, _, _ := newSUT(t, 0)
	info := sw.Info()
	if info.IOMode != switchdef.InterruptMode {
		t.Fatal("VALE must be interrupt-driven")
	}
	if info.VirtualIface != "ptnet" {
		t.Fatalf("virtual iface = %q", info.VirtualIface)
	}
	if info.Tuning == "" {
		t.Fatal("Table 2 tuning note missing")
	}
}
