package fastclick

import (
	"strings"
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

func TestCrossConnectForwards(t *testing.T) {
	sw, fps, env := newSUT(t, 2)
	if err := sw.CrossConnect(0, 1); err != nil {
		t.Fatal(err)
	}
	m := switchtest.Meter(env)
	fps[0].In = append(fps[0].In, switchtest.Frame(env.Pool, pkt.MAC{2, 0, 0, 0, 0, 1}, pkt.MAC{2, 0, 0, 0, 0, 2}, 64))
	fps[1].In = append(fps[1].In, switchtest.Frame(env.Pool, pkt.MAC{2, 0, 0, 0, 0, 2}, pkt.MAC{2, 0, 0, 0, 0, 1}, 64))
	switchtest.PollUntilIdle(sw, m, 0)
	if len(fps[1].Out) != 1 || len(fps[0].Out) != 1 {
		t.Fatalf("outputs = %d, %d", len(fps[0].Out), len(fps[1].Out))
	}
}

// TestReinstallReplacesWiring pins the Programmer contract for wiring
// rules: re-installing an in_port rule replaces it in place, so frames
// follow the new output and Snapshot holds one rule.
func TestReinstallReplacesWiring(t *testing.T) {
	sw, fps, env := newSUT(t, 3)
	wire := func(out int) switchdef.Rule {
		return switchdef.Rule{
			Match:   switchdef.Match{Fields: switchdef.FInPort, InPort: 0},
			Actions: []switchdef.RuleAction{{Kind: switchdef.RuleOutput, Port: out}},
		}
	}
	for _, out := range []int{1, 2} {
		if err := sw.Install(wire(out)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		fps[0].In = append(fps[0].In, switchtest.Frame(env.Pool, pkt.MAC{2, 0, 0, 0, 0, 1}, pkt.MAC{2, 0, 0, 0, 0, 2}, 64))
	}
	m := switchtest.Meter(env)
	switchtest.PollUntilIdle(sw, m, 0)
	if len(fps[1].Out) != 0 || len(fps[2].Out) != 3 {
		t.Fatalf("outputs: port1=%d port2=%d, want 0 and 3", len(fps[1].Out), len(fps[2].Out))
	}
	if snap := sw.Snapshot(); len(snap) != 1 || snap[0].Actions[0].Port != 2 {
		t.Fatalf("snapshot = %+v, want the one rule to port 2", snap)
	}
}

// dropDst is the typed dl_dst → drop rule that feeds the Classifier-style
// drop stage.
func dropDst(mac pkt.MAC) switchdef.Rule {
	return switchdef.Rule{
		Match:   switchdef.Match{Fields: switchdef.FEthDst, EthDst: mac},
		Actions: []switchdef.RuleAction{{Kind: switchdef.RuleDrop}},
	}
}

// TestClassifierDispatch: the drop stage splits each RX batch by dl_dst —
// listed destinations are discarded, the rest reach ToDPDKDevice — and a
// Revoke lets the destination through again.
func TestClassifierDispatch(t *testing.T) {
	sw, fps, env := newSUT(t, 2)
	if err := sw.CrossConnect(0, 1); err != nil {
		t.Fatal(err)
	}
	blocked := pkt.MAC{2, 0, 0, 0, 0, 0x99}
	if err := sw.Install(dropDst(blocked)); err != nil {
		t.Fatal(err)
	}
	src := pkt.MAC{2, 0, 0, 0, 0, 1}
	fps[0].In = append(fps[0].In,
		switchtest.Frame(env.Pool, src, pkt.MAC{2, 0, 0, 0, 0, 2}, 64),
		switchtest.Frame(env.Pool, src, blocked, 64))
	m := switchtest.Meter(env)
	switchtest.PollUntilIdle(sw, m, 0)
	if len(fps[1].Out) != 1 || pkt.EthDst(fps[1].Out[0].Bytes()) == blocked {
		t.Fatalf("classifier passed %d frames", len(fps[1].Out))
	}
	if err := sw.Revoke(dropDst(blocked)); err != nil {
		t.Fatal(err)
	}
	fps[0].In = append(fps[0].In, switchtest.Frame(env.Pool, src, blocked, 64))
	switchtest.PollUntilIdle(sw, m, 1)
	if len(fps[1].Out) != 2 {
		t.Fatalf("revoked drop still applied: out = %d", len(fps[1].Out))
	}
}

func TestDiscardFrees(t *testing.T) {
	sw, fps, env := newSUT(t, 2)
	if err := sw.CrossConnect(0, 1); err != nil {
		t.Fatal(err)
	}
	dst := pkt.MAC{2, 0, 0, 0, 0, 2}
	if err := sw.Install(dropDst(dst)); err != nil {
		t.Fatal(err)
	}
	fps[0].In = append(fps[0].In, switchtest.Frame(env.Pool, pkt.MAC{2, 0, 0, 0, 0, 1}, dst, 64))
	m := switchtest.Meter(env)
	switchtest.PollUntilIdle(sw, m, 0)
	if env.Pool.Live() != 0 {
		t.Fatalf("leaked %d buffers", env.Pool.Live())
	}
	if sw.Dropped != 1 {
		t.Fatalf("dropped = %d", sw.Dropped)
	}
}

func TestInfoRingTuning(t *testing.T) {
	sw, _, _ := newSUT(t, 0)
	info := sw.Info()
	if info.RxRingOverride != 4096 {
		t.Fatalf("Table 2 ring tuning missing: %d", info.RxRingOverride)
	}
	if !strings.Contains(info.Tuning, "4096") {
		t.Fatalf("tuning note: %q", info.Tuning)
	}
	if info.SelfContained {
		t.Fatal("FastClick is modular")
	}
}
