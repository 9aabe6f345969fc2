package conformance

import (
	"errors"
	"fmt"
	"hash/maphash"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/pkt"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/switches/switchdef"
	"repro/internal/switches/switchtest"
	"repro/internal/units"

	_ "repro/internal/switches/bess"
	_ "repro/internal/switches/fastclick"
	_ "repro/internal/switches/ovs"
	_ "repro/internal/switches/snabb"
	_ "repro/internal/switches/t4p4s"
	_ "repro/internal/switches/vale"
	_ "repro/internal/switches/vpp"
)

// script is one traffic shape. With a seed it makes every traffic
// decision of a pass, drawn from a random stream of its own, so both
// presentations of the pass see the same traffic.
type script struct {
	group  string // the TestSwitchConformance subtest the row runs under
	name   string // the row within its group, if the group has several
	flows  int    // distinct flows toward switch port 1 (flowTemplate)
	maxRun int    // runs are 1..maxRun frames long
	stray  bool   // a fifth of the runs enter a third port no rule covers
	// drop installs dl_dst=blockedMAC → drop on a programmable switch and
	// sends part of the traffic there, and part to the sender's own MAC (a
	// table miss on t4p4s, a hairpin on VALE).
	drop   bool
	vhost  bool    // the egress port is vhost-user kind, else physical
	refuse float64 // the chance, per step, that the egress refuses TX
	churn  bool    // shadow rules are installed and revoked mid-traffic
}

// scripts are the rows TestSwitchConformance runs on every switch, in
// groups: many short multi-flow runs, runs against the switch's edges,
// ledger balance under drops and refusals, and rule churn. Runs of up to
// 300 frames are longer than every switch's burst or vector, so its burst
// limit cuts them (OvS, BESS, FastClick and t4p4s take 32 frames, Snabb
// 128, VPP and VALE 256).
var scripts = []script{
	{group: "multiflow", flows: 64, maxRun: 4},
	{group: "runs", name: "burst-cuts-runs", flows: 2, maxRun: 300},
	{group: "runs", name: "reject-tx", flows: 2, maxRun: 40, refuse: 1},
	{group: "runs", name: "vhost-egress", flows: 2, maxRun: 40, vhost: true},
	{group: "runs", name: "drop-rule", flows: 2, maxRun: 40, drop: true},
	{group: "runs", name: "no-match", flows: 2, maxRun: 40, stray: true},
	{group: "ledger", name: "phys", flows: 2, maxRun: 40, stray: true, drop: true, refuse: 0.3},
	{group: "ledger", name: "vhost-user", flows: 2, maxRun: 40, stray: true, drop: true, refuse: 0.3, vhost: true},
	{group: "churn", flows: 64, maxRun: 4, drop: true, churn: true},
}

// churnScript is the churn row, which the parallel subtest also runs.
var churnScript = scripts[len(scripts)-1]

const (
	steps       = 60 // script steps per pass
	churnRules  = 16 // shadow-rule identities the churn draws from
	probeFrames = 4  // frames in a drop-rule probe
)

var (
	senderMAC  = pkt.MAC{0x02, 0xaa, 0, 0, 0, 0x01} // the source of every frame
	blockedMAC = pkt.MAC{0x0e, 0xc4, 0, 0, 0, 0x77} // what the drop rule drops
	imageSeed  = maphash.MakeSeed()                 // hashes frame contents
)

// frame is flow i from senderMAC to dst, of size bytes.
func frame(dst pkt.MAC, size, i int) *pkt.Template {
	return pkt.FrameSpec{
		SrcMAC: senderMAC, DstMAC: dst,
		SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2},
		SrcPort: 1000, DstPort: 2000, FrameLen: size,
	}.Template(i)
}

// flowTemplate is flow i toward switch port 1 (the testbed convention the
// t4p4s tables match on), in mixed lengths so that length-dependent
// charges see mixed-size traffic.
func flowTemplate(i int) *pkt.Template {
	return frame(switchdef.PortMAC(1), []int{64, 256, 64, 128}[i%4], i)
}

// shadowDropRule is the churn's rule identity i: dl_dst → drop on a MAC no
// generated frame carries (the shape the mid-run rule controller
// installs). Every programmable switch accepts it (OvS as an OpenFlow
// rule, t4p4s as a dmac table entry, VPP as an ACL arc entry, FastClick
// as a source-side filter), and each Install and Revoke must retire the
// flow caches the switch derived before the edit.
func shadowDropRule(i int) switchdef.Rule {
	return switchdef.Rule{
		Match:   switchdef.Match{Fields: switchdef.FEthDst, EthDst: pkt.MAC{0x0e, 0xc4, 0, 0, 0, byte(i)}},
		Actions: []switchdef.RuleAction{{Kind: switchdef.RuleDrop}},
	}
}

// frameRecord is one transmitted frame as the comparison sees it.
type frameRecord struct {
	port    int
	seq     uint64
	ingress units.Time
	image   uint64 // the frame contents' hash
}

// outcome is everything observable about one pass.
type outcome struct {
	cycles             units.Cycles
	nextDraw           uint64 // the meter's next random draw
	rules              int    // live churned rules
	forwarded, dropped int64
	counters           string
	egress             []frameRecord
}

// pass is one switch on fake ports, in 0 cross-connected to out 1 (and
// with a stray script a third port), driven in one presentation.
type pass struct {
	sw     switchdef.Switch
	env    switchdef.Env
	m      *cost.Meter
	ports  []*switchtest.FakePort
	ref    bool
	now    units.Time
	seq    uint64
	egress []frameRecord
}

// newPass builds the named switch's pass for sc.
func newPass(name string, sc script, ref bool) (*pass, error) {
	env := switchtest.Env()
	sw, err := switchdef.New(name, env)
	if err != nil {
		return nil, err
	}
	p := &pass{sw: sw, env: env, m: switchtest.Meter(env), ref: ref, seq: 1}
	p.ports = []*switchtest.FakePort{switchtest.NewFakePort("in"), switchtest.NewFakePort("out")}
	if sc.stray {
		p.ports = append(p.ports, switchtest.NewFakePort("stray"))
	}
	if sc.vhost {
		p.ports[1].PortKind = switchdef.VhostKind
	}
	for _, port := range p.ports {
		sw.AddPort(port)
	}
	return p, sw.CrossConnect(0, 1)
}

// send queues k frames of tmpl on port. The fast presentation sends them
// as one template-backed run, the reference as k materialized buffers,
// frame i numbered Seq+i and arriving at Ingress + i·Gap.
func (p *pass) send(port *switchtest.FakePort, tmpl *pkt.Template, k int) {
	gap := units.TenGigE.WireTime(tmpl.Len())
	for i := 0; i < k; i++ {
		b := p.env.Pool.Get(tmpl.Len())
		b.SetTemplate(tmpl)
		b.Seq, b.Ingress, b.Gap = p.seq+uint64(i), p.now+units.Time(i)*gap, gap
		port.In = append(port.In, b)
		if !p.ref {
			b.SetRun(k)
			break
		}
		b.Bytes()
	}
	p.seq += uint64(k)
}

// poll polls the switch until it idles, with drain past every staged
// batch's drain timer (t4p4s, FastClick's vhost output), and records what
// every port transmitted, runs expanded.
func (p *pass) poll(drain bool) {
	p.now = switchtest.PollUntilIdle(p.sw, p.m, p.now)
	if drain {
		p.now = switchtest.PollUntilIdle(p.sw, p.m, p.now+units.Millisecond)
	}
	for i, port := range p.ports {
		for _, b := range port.Out {
			image := maphash.Bytes(imageSeed, b.View())
			for j := 0; j < b.Run(); j++ {
				p.egress = append(p.egress, frameRecord{i, b.Seq + uint64(j), b.Ingress + units.Time(j)*b.Gap, image})
			}
			b.Free()
		}
		port.Out = port.Out[:0]
	}
}

// probe sends a run toward blockedMAC into the accepting egress and
// returns how many of its frames the switch transmitted.
func (p *pass) probe(blocked *pkt.Template) int {
	p.ports[1].RejectTx = false
	n := len(p.egress)
	p.send(p.ports[0], blocked, probeFrames)
	p.poll(true)
	return len(p.egress) - n
}

// drive runs sc with seed through a fresh instance of the named switch,
// in the reference presentation when ref is set, else the fast one, and
// checks what must hold on every pass: every frame offered is received,
// the ledger balances against the ports, a live drop rule drops and,
// with churn, the end-of-run revoke contract holds. It shares no state
// with other calls, so concurrent calls are safe.
func drive(name string, sc script, ref bool, seed uint64) (o outcome, err error) {
	p, err := newPass(name, sc, ref)
	if err != nil {
		return o, err
	}
	info, _ := switchdef.Lookup(name) // registered: newPass built it
	// ruleEdit applies Install or Revoke, which only a programmable switch takes.
	ruleEdit := func(edit func(switchdef.Rule) error, r switchdef.Rule) error {
		if err := edit(r); info.RuntimeRules && err != nil || !info.RuntimeRules && !errors.Is(err, switchdef.ErrNoRuntimeRules) {
			return fmt.Errorf("%s: rule edit %s returned %v", name, r.Key(), err)
		}
		return nil
	}
	tmpls := make([]*pkt.Template, sc.flows, sc.flows+2)
	for i := range tmpls {
		tmpls[i] = flowTemplate(i)
	}
	blocked, probed, baseline := frame(blockedMAC, 64, sc.flows), sc.drop && info.RuntimeRules, 0
	block := shadowDropRule(int(blockedMAC[5]))
	if name == "ovs" { // above the cross-connect's in_port rules, which win ties by install order
		block.Priority = switchdef.DefaultRulePriority + 1
	}
	if sc.drop {
		tmpls = append(tmpls, blocked, frame(senderMAC, 64, sc.flows+1))
		if probed {
			baseline = p.probe(blocked)
		}
		if err := ruleEdit(p.sw.Install, block); err != nil {
			return o, err
		}
	}

	rng := sim.NewRNG(seed)
	live := map[int]bool{}
	for step := 0; step < steps; step++ {
		if sc.churn && rng.Intn(2) == 0 {
			idx, edit := rng.Intn(churnRules), p.sw.Install
			if live[idx] {
				edit = p.sw.Revoke
			}
			if err := ruleEdit(edit, shadowDropRule(idx)); err != nil {
				return o, err
			}
			if live[idx] = info.RuntimeRules && !live[idx]; !live[idx] {
				delete(live, idx)
			}
		}
		p.ports[1].RejectTx = rng.Bernoulli(sc.refuse)
		for j, n := 0, 1+rng.Intn(8); j < n; j++ {
			port := p.ports[0]
			if sc.stray && rng.Intn(5) == 0 {
				port = p.ports[2]
			}
			p.send(port, tmpls[rng.Intn(len(tmpls))], 1+rng.Intn(sc.maxRun))
		}
		p.poll(step%10 == 9)
	}
	if probed {
		if n := p.probe(blocked); n != 0 {
			return o, fmt.Errorf("%s: %d of %d frames passed the live drop rule", name, n, probeFrames)
		}
	}
	if sc.churn {
		// Every churned identity revokes exactly when it is live, so the
		// switch's own tables hold the program the script left.
		for idx := 0; idx < churnRules; idx++ {
			if r := shadowDropRule(idx); live[idx] || !info.RuntimeRules {
				if err := ruleEdit(p.sw.Revoke, r); err != nil {
					return o, err
				}
			} else if p.sw.Revoke(r) == nil {
				return o, fmt.Errorf("%s: rule %d revoked but was never left installed", name, idx)
			}
		}
		if probed {
			if err := p.sw.Revoke(block); err != nil {
				return o, err
			}
			// The data plane forgets the rule, flow caches included.
			if n := p.probe(blocked); n != baseline {
				return o, fmt.Errorf("%s: %d of %d frames passed the revoked drop rule, %d before its install", name, n, probeFrames, baseline)
			}
		}
	}
	p.poll(true)

	// BESS, FastClick, Snabb and VALE never poll the stray port, which
	// their program leaves unused: its frames stay queued.
	var received, queued, sent int64
	for _, port := range p.ports {
		received, queued, sent = received+port.RxCount, queued+int64(pkt.Frames(port.In)), sent+port.TxCount
	}
	c := p.sw.Counts()
	switch {
	case len(p.ports[0].In) != 0 || received+queued != int64(p.seq-1):
		return o, fmt.Errorf("%s: %d frames offered, the switch received %d and left %d on the ingress", name, p.seq-1, received, len(p.ports[0].In))
	case received != c.Forwarded+c.Dropped:
		return o, fmt.Errorf("%s: received %d frames, booked %d forwarded + %d dropped", name, received, c.Forwarded, c.Dropped)
	case c.Forwarded != sent:
		return o, fmt.Errorf("%s: booked %d forwarded, the ports sent %d", name, c.Forwarded, sent)
	}
	return outcome{p.m.Total(), p.m.RNG.Uint64(), len(live), c.Forwarded, c.Dropped, counters(p.sw), p.egress}, nil
}

// differ describes how outcome a differs from b, or returns "".
func differ(a, b outcome) string {
	sum := func(o outcome) string {
		return fmt.Sprintf("%d cycles, next draw %#x, %d live rules, %d egress frames, counters %s",
			o.cycles, o.nextDraw, o.rules, len(o.egress), o.counters)
	}
	if sa, sb := sum(a), sum(b); sa != sb {
		return sa + "\nagainst\n" + sb
	}
	for i, f := range a.egress {
		if g := b.egress[i]; f != g {
			return fmt.Sprintf("egress frame %d is %+v against %+v", i, f, g)
		}
	}
	return ""
}

// conform drives sc with seed through the named switch in both
// presentations, requires identical outcomes and returns the fast one.
func conform(t *testing.T, name string, sc script, seed uint64) outcome {
	t.Helper()
	fast, err := drive(name, sc, false, seed)
	if err != nil {
		t.Fatalf("seed %d, fast: %v", seed, err)
	}
	ref, err := drive(name, sc, true, seed)
	if err != nil {
		t.Fatalf("seed %d, reference: %v", seed, err)
	}
	if d := differ(fast, ref); d != "" {
		t.Fatalf("seed %d: fast against reference: %s", seed, d)
	}
	return fast
}

// TestSwitchConformance holds every switch, on every script and seeds 1–3,
// to its fast presentation (template-backed buffers sent as runs) giving
// what its reference (materialized buffers sent frame by frame) gives,
// each pass meeting drive's checks and each row's traffic showing what the
// row is about. Subtests are <group>/<switch>[/<row>]. In parallel/<switch>
// four fast churn instances at once must agree: rule state and caches are
// per instance, never shared (race-clean under -race).
func TestSwitchConformance(t *testing.T) {
	for _, group := range []string{"multiflow", "runs", "ledger", "churn"} {
		t.Run(group, func(t *testing.T) {
			for _, name := range switchdef.Names() {
				for _, sc := range scripts {
					if sc.group == group {
						t.Run(strings.TrimSuffix(name+"/"+sc.name, "/"), func(t *testing.T) { conformRow(t, name, sc) })
					}
				}
			}
		})
	}
	t.Run("parallel", func(t *testing.T) {
		for _, name := range switchdef.Names() {
			t.Run(name, func(t *testing.T) {
				outs, errs := make([]outcome, 4), make([]error, 4)
				var wg sync.WaitGroup
				for w := range outs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						outs[w], errs[w] = drive(name, churnScript, false, 7)
					}()
				}
				wg.Wait()
				for w, o := range outs {
					if errs[w] != nil {
						t.Fatal(errs[w])
					}
					if d := differ(o, outs[0]); d != "" {
						t.Errorf("instance %d against instance 0: %s", w, d)
					}
				}
			})
		}
	})
}

// conformRow conforms the named switch on sc at seeds 1–3 and checks that
// the traffic shows what the row is about.
func conformRow(t *testing.T, name string, sc script) {
	for seed := uint64(1); seed <= 3; seed++ {
		o := conform(t, name, sc, seed)
		switch {
		case sc.refuse < 1 && o.forwarded == 0:
			t.Fatalf("seed %d: nothing left the switch", seed)
		case sc.refuse > 0 && o.dropped == 0:
			t.Fatalf("seed %d: the refused TX dropped nothing", seed)
		case sc.stray && name == "ovs" && !strings.Contains(o.counters, ".NoMatch="):
			t.Fatalf("seed %d: no frame missed every tier: %s", seed, o.counters)
		}
	}
}

// FuzzSwitchConformance holds every switch's fast presentation to its
// reference over a fuzzed seed and script shape: driven by the same
// traffic script, a switch must give the same observables on
// template-backed runs as on the traffic materialized as single frames.
// The corpus starts from the script table at seed 4, one past the table's.
func FuzzSwitchConformance(f *testing.F) {
	for _, sc := range scripts {
		f.Add(uint64(4), uint8(sc.flows), uint16(sc.maxRun-1), uint8(sc.refuse*100), sc.vhost, sc.drop, sc.stray, sc.churn)
	}
	f.Fuzz(func(t *testing.T, seed uint64, flows uint8, run uint16, refuse uint8, vhost, drop, stray, churn bool) {
		sc := script{"fuzz", "", 1 + int(flows)%64, 1 + int(run)%300, stray, drop, vhost, float64(min(refuse, 100)) / 100, churn}
		for _, name := range switchdef.Names() {
			conform(t, name, sc, seed)
		}
	})
}

// counters renders every nonzero integer a switch holds, reached through
// its fields, pointers, slices and arrays: the data-plane ledger, cache
// tier and table counters, and state such as Snabb's JIT progress. It
// skips what legitimately differs between the presentations: the buffers
// themselves, the pools they come from, ring slot counts (a Snabb link
// slot holds a run) and frame templates (OvS keeps a port's last one,
// which a materialized frame has not); it also skips the devices, the
// random stream (compared on its own), and maps, whose order is random.
func counters(sw switchdef.Switch) string {
	var sb strings.Builder
	seen := map[uintptr]bool{}
	skip := map[reflect.Type]bool{
		reflect.TypeOf(pkt.Buf{}):      true,
		reflect.TypeOf(pkt.Pool{}):     true,
		reflect.TypeOf(pkt.Template{}): true,
		reflect.TypeOf(ring.SPSC{}):    true,
		reflect.TypeOf(sim.RNG{}):      true,
		reflect.TypeOf(cost.Model{}):   true,
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
				if f := v.Field(i); !f.IsZero() {
					walk(path+"."+v.Type().Field(i).Name, f)
				}
			}
		case reflect.Slice, reflect.Array:
			// A zero element holds no nonzero integer: skip it before
			// paying for its path (OvS's EMC is 8192 mostly empty slots).
			for i := 0; i < v.Len(); i++ {
				if e := v.Index(i); !e.IsZero() {
					walk(fmt.Sprintf("%s[%d]", path, i), e)
				}
			}
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			fmt.Fprintf(&sb, "%s=%d ", path, v.Int())
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			fmt.Fprintf(&sb, "%s=%d ", path, v.Uint())
		}
	}
	walk("", reflect.ValueOf(sw))
	return sb.String()
}

// BenchmarkSwitchPoll measures the host-side cost of pushing one 32-frame
// 64B single-flow burst through each switch's Poll (receive, classify,
// act, transmit) — the hot loop the campaign engine spends its time in.
func BenchmarkSwitchPoll(b *testing.B) {
	for _, name := range switchdef.Names() {
		b.Run(name, func(b *testing.B) {
			p, err := newPass(name, script{}, false)
			if err != nil {
				b.Fatal(err)
			}
			tmpl := flowTemplate(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < 32; j++ {
					buf := p.env.Pool.Get(tmpl.Len())
					buf.SetTemplate(tmpl)
					p.ports[0].In = append(p.ports[0].In, buf)
				}
				p.now = switchtest.PollUntilIdle(p.sw, p.m, p.now)
				for _, ob := range p.ports[1].Out {
					ob.Free()
				}
				p.ports[1].Out = p.ports[1].Out[:0]
			}
		})
	}
}
