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

func TestBuilderPipeline(t *testing.T) {
	sw, fps, env := newSUT(t, 2)
	in, err := sw.NewQueueInc("in0", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sw.NewQueueOut("out0", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Connect(in, out); err != nil {
		t.Fatal(err)
	}
	fps[0].In = append(fps[0].In, frame(env))
	m := switchtest.Meter(env)
	switchtest.PollUntilIdle(sw, m, 0)
	if len(fps[1].Out) != 1 || in.Packets != 1 || out.Packets != 1 {
		t.Fatalf("out=%d in.Packets=%d out.Packets=%d", len(fps[1].Out), in.Packets, out.Packets)
	}
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

func TestWRRWheelWeights(t *testing.T) {
	sw, fps, env := newSUT(t, 4)
	// in0 gets weight 3, in1 weight 1: per wheel turn, in0 runs 3×.
	inA, _ := sw.NewQueueInc("inA", 0, 3)
	inB, _ := sw.NewQueueInc("inB", 1, 1)
	outA, _ := sw.NewQueueOut("outA", 2)
	outB, _ := sw.NewQueueOut("outB", 3)
	_ = sw.Connect(inA, outA)
	_ = sw.Connect(inB, outB)
	if len(sw.wheel) != 4 {
		t.Fatalf("wheel = %d entries", len(sw.wheel))
	}
	// Fill both inputs with more than a burst; one Poll = one wheel turn:
	// inA should move 3 bursts (96), inB one burst (32).
	for i := 0; i < 200; i++ {
		fps[0].In = append(fps[0].In, frame(env))
		fps[1].In = append(fps[1].In, frame(env))
	}
	m := switchtest.Meter(env)
	sw.Poll(0, m)
	if inA.Packets != 96 || inB.Packets != 32 {
		t.Fatalf("after one turn: inA=%d inB=%d", inA.Packets, inB.Packets)
	}
}

func TestModuleErrors(t *testing.T) {
	sw, _, _ := newSUT(t, 1)
	if _, err := sw.NewQueueInc("x", 9, 1); err == nil {
		t.Fatal("bad port accepted")
	}
	if _, err := sw.NewQueueOut("x", -1); err == nil {
		t.Fatal("bad port accepted")
	}
	a, _ := sw.NewQueueInc("a", 0, 1)
	if _, err := sw.NewQueueInc("a", 0, 1); err == nil {
		t.Fatal("duplicate name accepted")
	}
	s1, _ := sw.NewQueueOut("s1", 0)
	s2, _ := sw.NewQueueOut("s2", 0)
	if err := sw.Connect(a, s1); err != nil {
		t.Fatal(err)
	}
	if err := sw.Connect(a, s2); err == nil {
		t.Fatal("double connect accepted")
	}
}

func TestSourceWithoutGateDrops(t *testing.T) {
	sw, fps, env := newSUT(t, 1)
	_, _ = sw.NewQueueInc("in0", 0, 1)
	fps[0].In = append(fps[0].In, frame(env))
	m := switchtest.Meter(env)
	switchtest.PollUntilIdle(sw, m, 0)
	if sw.Dropped != 1 || env.Pool.Live() != 0 {
		t.Fatalf("dropped=%d live=%d", sw.Dropped, env.Pool.Live())
	}
}

func TestQEMUChainCap(t *testing.T) {
	sw, _, _ := newSUT(t, 0)
	if sw.Info().MaxLoopbackVNFs != 3 {
		t.Fatalf("BESS must cap loopback chains at 3 VMs (paper footnote 5), got %d",
			sw.Info().MaxLoopbackVNFs)
	}
}
