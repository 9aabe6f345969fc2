package bess

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

func frame(env switchdef.Env) *pkt.Buf {
	return switchtest.Frame(env.Pool, pkt.MAC{2, 0, 0, 0, 0, 1}, pkt.MAC{2, 0, 0, 0, 0, 2}, 64)
}

func TestCrossConnectBidirectional(t *testing.T) {
	sw, fps, env := newSUT(t, 2)
	if err := sw.CrossConnect(0, 1); err != nil {
		t.Fatal(err)
	}
	fps[0].In = append(fps[0].In, frame(env))
	fps[1].In = append(fps[1].In, frame(env))
	m := switchtest.Meter(env)
	switchtest.PollUntilIdle(sw, m, 0)
	if len(fps[0].Out) != 1 || len(fps[1].Out) != 1 {
		t.Fatalf("outputs = %d, %d", len(fps[0].Out), len(fps[1].Out))
	}
}

// TestTwoCrossConnectsOnePoll pins one scheduler round over the four
// tasks two cross-connects create: every task runs once, in creation
// order, so the charged cycles fix the order and size of the noisy draws
// and each port receives exactly its peer's batch.
func TestTwoCrossConnectsOnePoll(t *testing.T) {
	sw, fps, env := newSUT(t, 4)
	if err := sw.CrossConnect(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := sw.CrossConnect(2, 3); err != nil {
		t.Fatal(err)
	}
	for port, n := range []int{5, 3, 40, 1} {
		for i := 0; i < n; i++ {
			fps[port].In = append(fps[port].In, frame(env))
		}
	}
	m := switchtest.Meter(env)
	sw.Poll(0, m)
	var out [4]int
	for i, fp := range fps {
		out[i] = len(fp.Out)
	}
	if want := [4]int{3, 5, 1, Burst}; out != want {
		t.Errorf("per-port output = %v, want %v", out, want)
	}
	if got := m.Pending(); got != 2726 {
		t.Errorf("charged %d cycles, want %d", got, 2726)
	}
}

func TestModuleErrors(t *testing.T) {
	sw, _, _ := newSUT(t, 2)
	if err := sw.CrossConnect(0, 9); err == nil {
		t.Fatal("bad port accepted")
	}
	if err := sw.CrossConnect(-1, 1); err == nil {
		t.Fatal("bad port accepted")
	}
	if len(sw.tasks) != 0 {
		t.Fatalf("a rejected cross-connect left %d tasks", len(sw.tasks))
	}
}

func TestQEMUChainCap(t *testing.T) {
	sw, _, _ := newSUT(t, 0)
	if sw.Info().MaxLoopbackVNFs != 3 {
		t.Fatalf("BESS must cap loopback chains at 3 VMs (paper footnote 5), got %d",
			sw.Info().MaxLoopbackVNFs)
	}
}
