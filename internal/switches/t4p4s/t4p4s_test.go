package t4p4s

import (
	"maps"
	"testing"

	"repro/internal/pkt"
	"repro/internal/switches/switchdef"
	"repro/internal/switches/switchtest"
	"repro/internal/units"
)

func newSUT(ports int) (*Switch, []*switchtest.FakePort, switchdef.Env) {
	env := switchtest.Env()
	sw := New(env)
	return sw, switchtest.AddPorts(sw, ports), env
}

// drain polls repeatedly with advancing time so the HAL TX buffering's
// drain timer fires.
func drain(sw *Switch, env switchdef.Env) {
	m := switchtest.Meter(env)
	now := units.Time(0)
	for i := 0; i < 100; i++ {
		sw.Poll(now, m)
		now += m.Drain() + txFlushDrain
	}
}

func TestL2FwdProgramForwardsByDstMAC(t *testing.T) {
	sw, fps, env := newSUT(2)
	if err := sw.CrossConnect(0, 1); err != nil {
		t.Fatal(err)
	}
	// Per the paper: generators must send the corresponding destination
	// MACs for the dmac table to forward.
	fps[0].In = append(fps[0].In, switchtest.Frame(env.Pool, switchdef.PortMAC(0), switchdef.PortMAC(1), 64))
	fps[1].In = append(fps[1].In, switchtest.Frame(env.Pool, switchdef.PortMAC(1), switchdef.PortMAC(0), 64))
	drain(sw, env)
	if len(fps[1].Out) != 1 || len(fps[0].Out) != 1 {
		t.Fatalf("outputs = %d, %d", len(fps[0].Out), len(fps[1].Out))
	}
	if sw.dmac.Hits != 2 {
		t.Fatalf("table hits = %d", sw.dmac.Hits)
	}
}

func TestDefaultActionDropsUnknownMAC(t *testing.T) {
	sw, fps, env := newSUT(2)
	_ = sw.CrossConnect(0, 1)
	fps[0].In = append(fps[0].In, switchtest.Frame(env.Pool, switchdef.PortMAC(0), pkt.MAC{9, 9, 9, 9, 9, 9}, 64))
	drain(sw, env)
	if len(fps[1].Out) != 0 || sw.Dropped != 1 {
		t.Fatalf("out=%d dropped=%d", len(fps[1].Out), sw.Dropped)
	}
	if sw.dmac.Misses != 1 {
		t.Fatalf("misses = %d", sw.dmac.Misses)
	}
	if env.Pool.Live() != 0 {
		t.Fatal("leaked buffer")
	}
}

func TestSetDstMACAction(t *testing.T) {
	sw, fps, env := newSUT(2)
	_ = sw.CrossConnect(0, 1)
	// Replace the port-1 entry with one that rewrites the destination MAC
	// before forwarding.
	newMAC := pkt.MAC{0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff}
	target := switchdef.PortMAC(1)
	err := sw.Install(switchdef.Rule{
		Match: switchdef.Match{Fields: switchdef.FEthDst, EthDst: target},
		Actions: []switchdef.RuleAction{
			{Kind: switchdef.RuleSetEthDst, MAC: newMAC},
			{Kind: switchdef.RuleOutput, Port: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fps[0].In = append(fps[0].In, switchtest.Frame(env.Pool, switchdef.PortMAC(0), target, 64))
	drain(sw, env)
	if len(fps[1].Out) != 1 {
		t.Fatalf("out = %d", len(fps[1].Out))
	}
	if pkt.EthDst(fps[1].Out[0].Bytes()) != newMAC {
		t.Fatal("deparser did not write back the rewritten MAC")
	}
}

func TestHALBuffersUntilBatchOrDrain(t *testing.T) {
	sw, fps, env := newSUT(2)
	_ = sw.CrossConnect(0, 1)
	m := switchtest.Meter(env)
	fps[0].In = append(fps[0].In, switchtest.Frame(env.Pool, switchdef.PortMAC(0), switchdef.PortMAC(1), 64))
	sw.Poll(0, m)
	m.Drain()
	if len(fps[1].Out) != 0 {
		t.Fatal("frame left before batch/drain")
	}
	// After the drain timeout it flushes.
	sw.Poll(txFlushDrain+units.Microsecond, m)
	if len(fps[1].Out) != 1 {
		t.Fatalf("out after drain = %d", len(fps[1].Out))
	}
	// A full batch flushes immediately.
	for i := 0; i < txFlushBatch; i++ {
		fps[0].In = append(fps[0].In, switchtest.Frame(env.Pool, switchdef.PortMAC(0), switchdef.PortMAC(1), 64))
	}
	now := txFlushDrain + 2*units.Microsecond
	for i := 0; i < 20; i++ { // Burst=32 per poll
		sw.Poll(now, m)
		now += m.Drain()
	}
	if len(fps[1].Out) != 1+txFlushBatch {
		t.Fatalf("out after full batch = %d", len(fps[1].Out))
	}
}

func TestMalformedFrameDropped(t *testing.T) {
	sw, fps, env := newSUT(2)
	_ = sw.CrossConnect(0, 1)
	runt := env.Pool.Get(10)
	fps[0].In = append(fps[0].In, runt)
	drain(sw, env)
	if sw.Dropped != 1 || env.Pool.Live() != 0 {
		t.Fatalf("dropped=%d live=%d", sw.Dropped, env.Pool.Live())
	}
}

// TestProgramOnTestbedPorts: dmac entries installed by hand against the
// testbed's PortMAC convention must forward, and must be exactly the
// program CrossConnect installs implicitly.
func TestProgramOnTestbedPorts(t *testing.T) {
	sw, fps, env := newSUT(2)
	for _, p := range []int{1, 0} {
		err := sw.Install(switchdef.Rule{
			Match:   switchdef.Match{Fields: switchdef.FEthDst, EthDst: switchdef.PortMAC(p)},
			Actions: []switchdef.RuleAction{{Kind: switchdef.RuleOutput, Port: p}},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	fps[0].In = append(fps[0].In, switchtest.Frame(env.Pool, switchdef.PortMAC(0), switchdef.PortMAC(1), 64))
	drain(sw, env)
	if len(fps[1].Out) != 1 {
		t.Fatalf("out = %d", len(fps[1].Out))
	}
	implicit, _, _ := newSUT(2)
	if err := implicit.CrossConnect(0, 1); err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(sw.dmac.entries, implicit.dmac.entries) {
		t.Fatalf("dmac = %v, CrossConnect installs %v", sw.dmac.entries, implicit.dmac.entries)
	}
}

// TestAddL2EntryValidation: a dmac entry must forward to a real port.
func TestAddL2EntryValidation(t *testing.T) {
	sw, _, _ := newSUT(1)
	err := sw.Install(switchdef.Rule{
		Match:   switchdef.Match{Fields: switchdef.FEthDst, EthDst: pkt.MAC{1}},
		Actions: []switchdef.RuleAction{{Kind: switchdef.RuleOutput, Port: 5}},
	})
	if err == nil {
		t.Fatal("bad port accepted")
	}
}

func TestTuningNoSourceMACLearning(t *testing.T) {
	// Table 2: "Remove source MAC learning phase" — the program's one
	// table is dmac, no smac.
	// Forwarding a frame from an unseen source leaves the dmac table as
	// CrossConnect filled it.
	sw, fps, env := newSUT(2)
	_ = sw.CrossConnect(0, 1)
	fps[0].In = append(fps[0].In, switchtest.Frame(env.Pool, pkt.MAC{2, 0xaa, 0, 0, 0, 1}, switchdef.PortMAC(1), 64))
	drain(sw, env)
	if len(fps[1].Out) != 1 || len(sw.dmac.entries) != 2 {
		t.Fatalf("out=%d table entries=%d", len(fps[1].Out), len(sw.dmac.entries))
	}
	if info, err := switchdef.Lookup("t4p4s"); err != nil || info.Tuning == "" {
		t.Fatalf("tuning note missing (%v)", err)
	}
}

func TestPipelineCostHasHighVariance(t *testing.T) {
	// Table 3's t4p4s signature: unstable pipeline. Measure per-packet
	// cost dispersion across many single-frame polls.
	sw, fps, env := newSUT(2)
	_ = sw.CrossConnect(0, 1)
	m := switchtest.Meter(env)
	var costs []float64
	for i := 0; i < 500; i++ {
		fps[0].In = append(fps[0].In, switchtest.Frame(env.Pool, switchdef.PortMAC(0), switchdef.PortMAC(1), 64))
		before := m.Total()
		sw.Poll(0, m)
		m.Drain()
		costs = append(costs, float64(m.Total()-before))
	}
	var sum, sq float64
	for _, c := range costs {
		sum += c
	}
	mean := sum / float64(len(costs))
	for _, c := range costs {
		sq += (c - mean) * (c - mean)
	}
	cv := (sq / float64(len(costs))) / (mean * mean)
	if cv < 0.005 {
		t.Fatalf("cost CV² = %f — pipeline too stable for t4p4s", cv)
	}
	for _, b := range fps[1].Out {
		b.Free()
	}
}

// TestTableKeyDistinguishesEveryByte: the dmac table's packed key must keep
// all six MAC bytes apart. For every byte position, two MACs that differ
// only there resolve to distinct entries, removing one leaves the other
// hit, and Hits / Misses count one per lookup. The all-ones base makes a
// key that drops a byte or ORs two bytes into one shift collide.
func TestTableKeyDistinguishesEveryByte(t *testing.T) {
	for _, base := range []byte{0x00, 0xff, 0x5a} {
		for i := 0; i < 6; i++ {
			a := pkt.MAC{base, base, base, base, base, base}
			b := a
			b[i] ^= 0xff
			tab := NewTable(Entry{Action: ActDrop})
			tab.Add(a, Entry{Action: ActForward, Port: 1})
			tab.Add(b, Entry{Action: ActForward, Port: 2})
			if len(tab.entries) != 2 {
				t.Fatalf("base %#x byte %d: %d entries, want 2", base, i, len(tab.entries))
			}
			if e, hit := tab.lookup(a, 1); !hit || e.Port != 1 {
				t.Fatalf("base %#x byte %d: lookup(%v) = %+v, %v", base, i, a, e, hit)
			}
			if e, hit := tab.lookup(b, 1); !hit || e.Port != 2 {
				t.Fatalf("base %#x byte %d: lookup(%v) = %+v, %v", base, i, b, e, hit)
			}
			if !tab.Remove(a) {
				t.Fatalf("base %#x byte %d: Remove(%v) found nothing", base, i, a)
			}
			if tab.Remove(a) {
				t.Fatalf("base %#x byte %d: second Remove(%v) reported an entry", base, i, a)
			}
			if e, hit := tab.lookup(a, 1); hit || e.Action != ActDrop {
				t.Fatalf("base %#x byte %d: removed %v still resolves to %+v", base, i, a, e)
			}
			if e, hit := tab.lookup(b, 1); !hit || e.Port != 2 {
				t.Fatalf("base %#x byte %d: Remove(%v) disturbed %v: %+v, %v", base, i, a, b, e, hit)
			}
			if tab.Hits != 3 || tab.Misses != 1 {
				t.Fatalf("base %#x byte %d: hits=%d misses=%d, want 3, 1", base, i, tab.Hits, tab.Misses)
			}
		}
	}
}
