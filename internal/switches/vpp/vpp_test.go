package vpp

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

func TestL2PatchForwards(t *testing.T) {
	sw, fps, env := newSUT(t, 2)
	if err := sw.CrossConnect(0, 1); err != nil {
		t.Fatal(err)
	}
	m := switchtest.Meter(env)
	fps[0].In = append(fps[0].In, switchtest.Frame(env.Pool, pkt.MAC{2, 0, 0, 0, 0, 1}, pkt.MAC{2, 0, 0, 0, 0, 2}, 64))
	fps[1].In = append(fps[1].In, switchtest.Frame(env.Pool, pkt.MAC{2, 0, 0, 0, 0, 2}, pkt.MAC{2, 0, 0, 0, 0, 1}, 64))
	switchtest.PollUntilIdle(sw, m, 0)
	if len(fps[1].Out) != 1 || len(fps[0].Out) != 1 {
		t.Fatalf("out counts = %d, %d", len(fps[0].Out), len(fps[1].Out))
	}
	if sw.Forwarded != 2 {
		t.Fatalf("forwarded = %d", sw.Forwarded)
	}
}

// TestCLIL2Patch: the paper appendix's one-way "test l2patch rx port0 tx
// port1" is a single in_port rule, and patches one direction only.
func TestCLIL2Patch(t *testing.T) {
	sw, fps, env := newSUT(t, 2)
	rule := switchdef.Rule{
		Match:   switchdef.Match{Fields: switchdef.FInPort, InPort: 0},
		Actions: []switchdef.RuleAction{{Kind: switchdef.RuleOutput, Port: 1}},
	}
	if err := sw.Install(rule); err != nil {
		t.Fatal(err)
	}
	m := switchtest.Meter(env)
	fps[0].In = append(fps[0].In, switchtest.Frame(env.Pool, pkt.MAC{2, 0, 0, 0, 0, 1}, pkt.MAC{2, 0, 0, 0, 0, 2}, 64))
	fps[1].In = append(fps[1].In, switchtest.Frame(env.Pool, pkt.MAC{2, 0, 0, 0, 0, 2}, pkt.MAC{2, 0, 0, 0, 0, 1}, 64))
	switchtest.PollUntilIdle(sw, m, 0)
	if len(fps[1].Out) != 1 {
		t.Fatalf("patched direction out = %d", len(fps[1].Out))
	}
	// The un-patched reverse direction drops.
	if len(fps[0].Out) != 0 || sw.Dropped != 1 {
		t.Fatalf("reverse out=%d dropped=%d", len(fps[0].Out), sw.Dropped)
	}
}

func TestCrossConnectValidation(t *testing.T) {
	sw, _, _ := newSUT(t, 2)
	if err := sw.CrossConnect(0, 7); err == nil {
		t.Fatal("bad port accepted")
	}
	if err := sw.CrossConnect(-1, 1); err == nil {
		t.Fatal("negative port accepted")
	}
}

func TestUnconfiguredPortDrops(t *testing.T) {
	sw, fps, env := newSUT(t, 2)
	m := switchtest.Meter(env)
	fps[0].In = append(fps[0].In, switchtest.Frame(env.Pool, pkt.MAC{2, 0, 0, 0, 0, 1}, pkt.MAC{2, 0, 0, 0, 0, 2}, 64))
	switchtest.PollUntilIdle(sw, m, 0)
	if sw.Dropped != 1 {
		t.Fatalf("dropped = %d", sw.Dropped)
	}
	if env.Pool.Live() != 0 {
		t.Fatalf("leaked %d buffers", env.Pool.Live())
	}
}

func TestInfoTaxonomy(t *testing.T) {
	sw, _, _ := newSUT(t, 0)
	info := sw.Info()
	if !info.SelfContained || info.Paradigm != "structured" || info.ProcessingModel != "RTC" {
		t.Fatalf("taxonomy mismatch: %+v", info)
	}
	if info.VirtualIface != "vhost-user" || info.Reprogrammability != "medium" {
		t.Fatalf("taxonomy mismatch: %+v", info)
	}
}

// TestFanInPinned pins one dispatch of two patched ports feeding a third
// with a dl_dst drop rule on the path: the charged cycles fix the order
// and size of every noisy draw (two inputs, two patches, one merged
// interface-output over both inputs' survivors), the frame order on the
// shared output port fixes the merge order, and the counters fix where
// the rejected frame went.
func TestFanInPinned(t *testing.T) {
	sw, fps, env := newSUT(t, 3)
	for in := 0; in < 2; in++ {
		err := sw.Install(switchdef.Rule{
			Match:   switchdef.Match{Fields: switchdef.FInPort, InPort: in},
			Actions: []switchdef.RuleAction{{Kind: switchdef.RuleOutput, Port: 2}},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	blocked := pkt.MAC{0x0e, 0xc4, 0, 0, 0, 1}
	if err := sw.Install(switchdef.Rule{
		Match:   switchdef.Match{Fields: switchdef.FEthDst, EthDst: blocked},
		Actions: []switchdef.RuleAction{{Kind: switchdef.RuleDrop}},
	}); err != nil {
		t.Fatal(err)
	}
	// Port 0 sends 40 frames, the eighth of them to the blocked MAC; port
	// 1 sends 25. Source MACs carry (port, index).
	var want []pkt.MAC
	for port, n := range []int{40, 25} {
		for i := 0; i < n; i++ {
			src := pkt.MAC{2, 0, 0, 0, byte(port), byte(i)}
			dst := switchdef.PortMAC(2)
			if port == 0 && i == 7 {
				dst = blocked
			} else {
				want = append(want, src)
			}
			fps[port].In = append(fps[port].In, switchtest.Frame(env.Pool, src, dst, 64))
		}
	}
	m := switchtest.Meter(env)
	sw.Poll(0, m)
	if len(fps[2].Out) != len(want) {
		t.Fatalf("port 2 sent %d frames, want %d", len(fps[2].Out), len(want))
	}
	for i, b := range fps[2].Out {
		if got := pkt.EthSrc(b.View()); got != want[i] {
			t.Fatalf("port 2 frame %d came from %v, want %v", i, got, want[i])
		}
	}
	if sw.Dropped != 1 || sw.ACLDropped != 1 || sw.Forwarded != 64 {
		t.Errorf("dropped=%d aclDropped=%d forwarded=%d, want 1, 1, 64", sw.Dropped, sw.ACLDropped, sw.Forwarded)
	}
	if env.Pool.Live() != 64 {
		t.Errorf("live buffers = %d, want 64 (the rejected frame freed)", env.Pool.Live())
	}
	if got := m.Pending(); got != 10089 {
		t.Errorf("charged %d cycles, want %d", got, 10089)
	}
}

func TestPollChargesCycles(t *testing.T) {
	sw, fps, env := newSUT(t, 2)
	_ = sw.CrossConnect(0, 1)
	m := switchtest.Meter(env)
	for i := 0; i < 32; i++ {
		fps[0].In = append(fps[0].In, switchtest.Frame(env.Pool, pkt.MAC{2, 0, 0, 0, 0, 1}, pkt.MAC{2, 0, 0, 0, 0, 2}, 64))
	}
	sw.Poll(0, m)
	if m.Pending() == 0 {
		t.Fatal("forwarding charged no cycles")
	}
	// The 64B p2p path must fit well under 100 ns/packet for VPP to beat
	// 10 Gbps bidirectional (Fig. 4a).
	perPkt := float64(m.Pending()) / 32
	if perPkt < 60 || perPkt > 260 {
		t.Fatalf("per-packet cost = %.0f cycles, outside sanity band", perPkt)
	}
}
