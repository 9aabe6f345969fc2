package conformance

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/pkt"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/switches/switchdef"
	"repro/internal/switches/switchtest"
	"repro/internal/units"
)

// runCase is one traffic shape TestRunsMatchFrames feeds every switch.
type runCase struct {
	name     string
	maxRun   int                // runs are 1..maxRun frames long
	rejectTx bool               // the egress port refuses everything
	outKind  switchdef.PortKind // the egress port's kind
	drop     bool               // a dl_dst drop rule hits part of the traffic
	// stray sends part of the traffic into a third port that no rule
	// covers, so its runs miss every tier (OvS only).
	stray bool
}

var runCases = []runCase{
	// Runs longer than every switch's burst or vector: the burst limit
	// cuts them (OvS, BESS, FastClick and t4p4s take 32 frames, Snabb 128,
	// VPP and VALE 256).
	{name: "burst-cuts-runs", maxRun: 300, outKind: switchdef.PhysKind},
	{name: "reject-tx", maxRun: 40, rejectTx: true, outKind: switchdef.PhysKind},
	{name: "vhost-egress", maxRun: 40, outKind: switchdef.VhostKind},
	{name: "drop-rule", maxRun: 40, outKind: switchdef.PhysKind, drop: true},
	{name: "no-match", maxRun: 40, outKind: switchdef.PhysKind, stray: true},
}

// blockedMAC is the destination of the traffic the drop-rule case drops.
var blockedMAC = pkt.MAC{0x0e, 0xc4, 0, 0, 0, 0x77}

// installDropRule installs dl_dst=blockedMAC → drop on sw, the named
// switch, a programmable one, after its cross-connect.
func installDropRule(t *testing.T, name string, sw switchdef.Switch) {
	t.Helper()
	r := switchdef.Rule{
		Match:   switchdef.Match{Fields: switchdef.FEthDst, EthDst: blockedMAC},
		Actions: []switchdef.RuleAction{{Kind: switchdef.RuleDrop}},
	}
	if name == "ovs" {
		// Above the cross-connect's in_port rules, which would otherwise
		// win the tie by install order.
		r.Priority = switchdef.DefaultRulePriority + 1
	}
	if err := sw.Install(r); err != nil {
		t.Fatal(err)
	}
}

// runTemplates are the frame images the run traffic draws from: two
// lengths toward switch port 1, and in the drop-rule case one more toward
// blockedMAC.
func runTemplates(drop bool) []*pkt.Template {
	tmpls := []*pkt.Template{
		spec(switchdef.PortMAC(1), 64).Template(0),
		spec(switchdef.PortMAC(1), 256).Template(1),
	}
	if drop {
		tmpls = append(tmpls, spec(blockedMAC, 64).Template(2))
	}
	return tmpls
}

// senderMAC is the source of every frame the run and ledger traffic sends.
var senderMAC = pkt.MAC{0x02, 0xaa, 0, 0, 0, 0x01}

// spec is a frame from senderMAC to dst of size bytes.
func spec(dst pkt.MAC, size int) pkt.FrameSpec {
	return pkt.FrameSpec{
		SrcMAC: senderMAC, DstMAC: dst,
		SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2},
		SrcPort: 1000, DstPort: 2000, FrameLen: size,
	}
}

// frameRecord is one egress frame as the comparison sees it.
type frameRecord struct {
	seq     uint64
	ingress units.Time
	bytes   string
}

// runOutcome is everything observable about one pass.
type runOutcome struct {
	cycles   units.Cycles
	nextDraw uint64
	counters string
	egress   []frameRecord
}

// runPass drives one fresh instance of the named switch with the traffic
// seed scripts over tmpls: as runs when asRuns is set, else as the same
// frames one buffer each (frame i of a run numbered Seq+i and arriving at
// Ingress + i·Gap). It expands the runs the egress port received.
func runPass(t *testing.T, name string, rc runCase, tmpls []*pkt.Template, seed uint64, asRuns bool) runOutcome {
	t.Helper()
	env := switchtest.Env()
	sw, err := switchdef.New(name, env)
	if err != nil {
		t.Fatal(err)
	}
	in, out := switchtest.NewFakePort("in"), switchtest.NewFakePort("out")
	out.PortKind, out.RejectTx = rc.outKind, rc.rejectTx
	sw.AddPort(in)
	sw.AddPort(out)
	ins := []*switchtest.FakePort{in}
	if rc.stray {
		ins = append(ins, switchtest.NewFakePort("stray"))
		sw.AddPort(ins[1])
	}
	if err := sw.CrossConnect(0, 1); err != nil {
		t.Fatal(err)
	}
	if rc.drop {
		installDropRule(t, name, sw)
	}
	m := switchtest.Meter(env)
	rng := sim.NewRNG(seed)
	var o runOutcome
	now, seq := units.Time(0), uint64(1)
	for step := 0; step < 60; step++ {
		for j, n := 0, 1+rng.Intn(6); j < n; j++ {
			tmpl := tmpls[rng.Intn(len(tmpls))]
			k := 1 + rng.Intn(rc.maxRun)
			port := in
			if rc.stray {
				port = ins[rng.Intn(len(ins))]
			}
			gap := units.TenGigE.WireTime(tmpl.Len())
			for i := 0; i < k; i++ {
				if asRuns && i > 0 {
					break
				}
				b := env.Pool.Get(tmpl.Len())
				b.SetTemplate(tmpl)
				b.Seq, b.Ingress, b.Gap = seq+uint64(i), now+units.Time(i)*gap, gap
				if asRuns {
					b.SetRun(k)
				}
				port.In = append(port.In, b)
			}
			seq += uint64(k)
		}
		now = switchtest.PollUntilIdle(sw, m, now)
		if step%10 == 9 {
			// Past every staged batch's drain timer (t4p4s, FastClick's
			// vhost output).
			now = switchtest.PollUntilIdle(sw, m, now+units.Millisecond)
		}
		for _, b := range out.Out {
			for i := 0; i < b.Run(); i++ {
				o.egress = append(o.egress, frameRecord{b.Seq + uint64(i), b.Ingress + units.Time(i)*b.Gap, string(b.View())})
			}
			b.Free()
		}
		out.Out = out.Out[:0]
	}
	received, left := int64(0), 0
	for _, p := range ins {
		received, left = received+p.RxCount, left+len(p.In)
	}
	if received != int64(seq-1) || left != 0 {
		t.Fatalf("%d frames offered, the switch received %d and left %d buffers", seq-1, received, left)
	}
	o.cycles, o.nextDraw, o.counters = m.Total(), m.RNG.Uint64(), counters(sw)
	return o
}

// TestRunsMatchFrames feeds every switch the same traffic twice, once as
// runs (pkt.Buf.Run) and once as single frames, and requires the same
// cycles charged, the same next draw from the meter's random stream, the
// same counters (Forwarded, Dropped, cache tiers, tables, JIT progress)
// and, once runs are expanded, the same egress frames in the same order
// with the same sequence numbers, timestamps and bytes — over runs that a
// burst limit cuts, an egress port that refuses everything, a vhost-kind
// egress, on the programmable switches a drop rule hitting runs and, on
// OvS, runs into a port no rule covers.
func TestRunsMatchFrames(t *testing.T) {
	for _, name := range switchdef.Names() {
		info, err := switchdef.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, rc := range runCases {
			if rc.drop && !info.RuntimeRules || rc.stray && name != "ovs" {
				continue
			}
			t.Run(name+"/"+rc.name, func(t *testing.T) {
				// One set of templates for both passes: OvS keeps the
				// last one's identity per port, and counters reads it.
				tmpls := runTemplates(rc.drop)
				for seed := uint64(1); seed <= 3; seed++ {
					frames := runPass(t, name, rc, tmpls, seed, false)
					runs := runPass(t, name, rc, tmpls, seed, true)
					if frames.cycles != runs.cycles || frames.nextDraw != runs.nextDraw {
						t.Fatalf("seed %d: runs charged %d cycles (next draw %#x), frames %d (next draw %#x)",
							seed, runs.cycles, runs.nextDraw, frames.cycles, frames.nextDraw)
					}
					if frames.counters != runs.counters {
						t.Fatalf("seed %d: counters differ\n runs:   %s\n frames: %s", seed, runs.counters, frames.counters)
					}
					if len(frames.egress) != len(runs.egress) {
						t.Fatalf("seed %d: %d egress frames as runs, %d as frames", seed, len(runs.egress), len(frames.egress))
					}
					for i, f := range frames.egress {
						if r := runs.egress[i]; r != f {
							t.Fatalf("seed %d: egress frame %d is (seq %d, ingress %v) as runs, (seq %d, ingress %v) as frames, bytes equal %v",
								seed, i, r.seq, r.ingress, f.seq, f.ingress, r.bytes == f.bytes)
						}
					}
					if !rc.rejectTx && len(frames.egress) == 0 {
						t.Fatalf("seed %d: nothing left the switch", seed)
					}
					if rc.stray && !strings.Contains(frames.counters, ".NoMatch=") {
						t.Fatalf("seed %d: no frame missed every tier: %s", seed, frames.counters)
					}
				}
			})
		}
	}
}

// counters renders every integer a switch holds, reached through its
// fields, pointers, slices and arrays: the data-plane outcome counters,
// cache-tier and table counters, and state such as Snabb's JIT progress.
// It skips what legitimately differs between a run and its frames — the
// buffers themselves, the pools they come from, ring slot counts (a Snabb
// link slot holds a run) — the devices, the random stream (compared on its
// own), and maps, whose order is random.
func counters(sw switchdef.Switch) string {
	var sb strings.Builder
	seen := map[uintptr]bool{}
	skip := map[reflect.Type]bool{
		reflect.TypeOf(pkt.Buf{}):    true,
		reflect.TypeOf(pkt.Pool{}):   true,
		reflect.TypeOf(ring.SPSC{}):  true,
		reflect.TypeOf(sim.RNG{}):    true,
		reflect.TypeOf(cost.Model{}): true,
	}
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() || skip[v.Type().Elem()] || seen[v.Pointer()] {
				return
			}
			seen[v.Pointer()] = true
			walk(path, v.Elem())
		case reflect.Struct:
			if skip[v.Type()] {
				return
			}
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
			}
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			if n := v.Int(); n != 0 {
				fmt.Fprintf(&sb, "%s=%d ", path, n)
			}
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			if n := v.Uint(); n != 0 {
				fmt.Fprintf(&sb, "%s=%d ", path, n)
			}
		}
	}
	walk("", reflect.ValueOf(sw))
	return sb.String()
}
