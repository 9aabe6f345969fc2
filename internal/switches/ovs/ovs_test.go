package ovs

import (
	"encoding/binary"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/switches/switchdef"
	"repro/internal/switches/switchtest"
)

func newSUT(ports int) (*Switch, []*switchtest.FakePort, switchdef.Env) {
	env := switchtest.Env()
	sw := New(env)
	return sw, switchtest.AddPorts(sw, ports), env
}

// rule builds a typed rule; priority 0 means the OpenFlow default.
func rule(prio int, m switchdef.Match, acts ...switchdef.RuleAction) switchdef.Rule {
	return switchdef.Rule{Priority: prio, Match: m, Actions: acts}
}

func output(port int) switchdef.RuleAction {
	return switchdef.RuleAction{Kind: switchdef.RuleOutput, Port: port}
}

func inPort(p int) switchdef.Match {
	return switchdef.Match{Fields: switchdef.FInPort, InPort: p}
}

func install(t *testing.T, sw *Switch, rules ...switchdef.Rule) {
	t.Helper()
	for _, r := range rules {
		if err := sw.Install(r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCrossConnectForwardsAndCaches(t *testing.T) {
	sw, fps, env := newSUT(2)
	if err := sw.CrossConnect(0, 1); err != nil {
		t.Fatal(err)
	}
	m := switchtest.Meter(env)
	for i := 0; i < 3; i++ {
		fps[0].In = append(fps[0].In, switchtest.Frame(env.Pool, pkt.MAC{2, 0, 0, 0, 0, 1}, pkt.MAC{2, 0, 0, 0, 0, 2}, 64))
		switchtest.PollUntilIdle(sw, m, 0)
	}
	if len(fps[1].Out) != 3 {
		t.Fatalf("out = %d", len(fps[1].Out))
	}
	// First packet takes the slow path, the rest hit the EMC: the
	// three-tier cache behaviour the paper's single-flow traffic shows.
	if sw.SlowHits != 1 {
		t.Fatalf("slow hits = %d", sw.SlowHits)
	}
	if sw.EMCHits != 2 {
		t.Fatalf("EMC hits = %d", sw.EMCHits)
	}
}

func TestMegaflowHitAfterEMCMiss(t *testing.T) {
	sw, fps, env := newSUT(2)
	// Wildcard rule on in_port only: different flows share a megaflow.
	install(t, sw, rule(0, inPort(0), output(1)))
	m := switchtest.Meter(env)
	// Two different source MACs: both miss the EMC initially; the second
	// hits the megaflow installed by the first.
	fps[0].In = append(fps[0].In, switchtest.Frame(env.Pool, pkt.MAC{2, 0, 0, 0, 0, 0xaa}, pkt.MAC{2, 0, 0, 0, 0, 2}, 64))
	switchtest.PollUntilIdle(sw, m, 0)
	fps[0].In = append(fps[0].In, switchtest.Frame(env.Pool, pkt.MAC{2, 0, 0, 0, 0, 0xbb}, pkt.MAC{2, 0, 0, 0, 0, 2}, 64))
	switchtest.PollUntilIdle(sw, m, 1)
	if sw.SlowHits != 1 || sw.MegaHits != 1 {
		t.Fatalf("slow=%d mega=%d", sw.SlowHits, sw.MegaHits)
	}
	if len(fps[1].Out) != 2 {
		t.Fatalf("out = %d", len(fps[1].Out))
	}
}

func TestPriorityWins(t *testing.T) {
	sw, fps, env := newSUT(3)
	install(t, sw,
		rule(1, inPort(0), output(1)),
		rule(10, switchdef.Match{Fields: switchdef.FInPort | switchdef.FEthDst, InPort: 0, EthDst: pkt.MAC{2, 0, 0, 0, 0, 0x99}}, output(2)))
	m := switchtest.Meter(env)
	fps[0].In = append(fps[0].In, switchtest.Frame(env.Pool, pkt.MAC{2, 0, 0, 0, 0, 1}, pkt.MAC{2, 0, 0, 0, 0, 0x99}, 64))
	switchtest.PollUntilIdle(sw, m, 0)
	if len(fps[2].Out) != 1 || len(fps[1].Out) != 0 {
		t.Fatalf("priority violated: out1=%d out2=%d", len(fps[1].Out), len(fps[2].Out))
	}
}

func TestNoMatchDrops(t *testing.T) {
	sw, fps, env := newSUT(2)
	install(t, sw, rule(0, inPort(1), output(0)))
	m := switchtest.Meter(env)
	fps[0].In = append(fps[0].In, switchtest.Frame(env.Pool, pkt.MAC{2, 0, 0, 0, 0, 1}, pkt.MAC{2, 0, 0, 0, 0, 2}, 64))
	switchtest.PollUntilIdle(sw, m, 0)
	if sw.NoMatch != 1 || sw.Dropped != 1 {
		t.Fatalf("nomatch=%d dropped=%d", sw.NoMatch, sw.Dropped)
	}
	if env.Pool.Live() != 0 {
		t.Fatal("leaked buffer")
	}
}

func TestDropActionAndModDl(t *testing.T) {
	sw, fps, env := newSUT(2)
	want := pkt.MAC{0xaa, 0xaa, 0xaa, 0xaa, 0xaa, 0xaa}
	install(t, sw,
		rule(0, switchdef.Match{Fields: switchdef.FInPort | switchdef.FEthType, InPort: 0, EthType: 0x0806},
			switchdef.RuleAction{Kind: switchdef.RuleDrop}),
		rule(1, inPort(0), switchdef.RuleAction{Kind: switchdef.RuleSetEthSrc, MAC: want}, output(1)))
	arp := switchtest.Frame(env.Pool, pkt.MAC{2, 0, 0, 0, 0, 1}, pkt.MAC{2, 0, 0, 0, 0, 2}, 64)
	arp.Bytes()[12], arp.Bytes()[13] = 0x08, 0x06
	ip := switchtest.Frame(env.Pool, pkt.MAC{2, 0, 0, 0, 0, 1}, pkt.MAC{2, 0, 0, 0, 0, 2}, 64)
	fps[0].In = append(fps[0].In, arp, ip)
	m := switchtest.Meter(env)
	switchtest.PollUntilIdle(sw, m, 0)
	if len(fps[1].Out) != 1 {
		t.Fatalf("out = %d", len(fps[1].Out))
	}
	if pkt.EthSrc(fps[1].Out[0].Bytes()) != want {
		t.Fatal("set-eth-src not applied")
	}
}

// TestAddFlowValidatesOutputPort: Install is the add-flow of the typed
// control plane and keeps ovs-ofctl's check that outputs name real ports.
func TestAddFlowValidatesOutputPort(t *testing.T) {
	sw, _, _ := newSUT(2)
	if err := sw.Install(rule(0, inPort(0), output(9))); err == nil {
		t.Fatal("rule to missing port accepted")
	}
	if len(sw.Rules()) != 0 {
		t.Fatal("rejected rule was recorded")
	}
}

// TestDelFlowsInvalidatesCaches: Revoke is the del-flows of the typed
// control plane; no EMC or megaflow entry may outlive the rule it cached.
func TestDelFlowsInvalidatesCaches(t *testing.T) {
	sw, fps, env := newSUT(2)
	_ = sw.CrossConnect(0, 1)
	m := switchtest.Meter(env)
	fps[0].In = append(fps[0].In, switchtest.Frame(env.Pool, pkt.MAC{2, 0, 0, 0, 0, 1}, pkt.MAC{2, 0, 0, 0, 0, 2}, 64))
	switchtest.PollUntilIdle(sw, m, 0)
	if err := sw.Revoke(rule(0, inPort(0), output(1))); err != nil {
		t.Fatal(err)
	}
	fps[0].In = append(fps[0].In, switchtest.Frame(env.Pool, pkt.MAC{2, 0, 0, 0, 0, 1}, pkt.MAC{2, 0, 0, 0, 0, 2}, 64))
	switchtest.PollUntilIdle(sw, m, 1)
	if sw.NoMatch != 1 {
		t.Fatalf("stale cache served after revoke: nomatch=%d", sw.NoMatch)
	}
}

// TestParseFlowFields: lowering a typed match must mask exactly the
// fieldSpans of the fields it names, and nothing else.
func TestParseFlowFields(t *testing.T) {
	r, err := lowerRule(rule(0, switchdef.Match{
		Fields:  switchdef.FEthType | switchdef.FIPSrc | switchdef.FIPProto | switchdef.FL4Dst,
		EthType: 0x0800, IPSrc: [4]byte{10, 0, 0, 1}, IPProto: 17, L4Dst: 2000,
	}, switchdef.RuleAction{Kind: switchdef.RuleDrop}))
	if err != nil {
		t.Fatal(err)
	}
	named := []string{"dl_type", "nw_src", "nw_proto", "tp_dst"}
	inNamed := func(i int) bool {
		for _, f := range named {
			span := fieldSpans[f]
			if i >= span.off && i < span.off+span.len {
				return true
			}
		}
		return false
	}
	for i, m := range r.Mask {
		if want := inNamed(i); (m == 0xff) != want {
			t.Fatalf("mask byte %d = %#x, named field: %v", i, m, want)
		}
	}
}

// TestDumpFlows: the flow dump is the OpenFlow table in install order,
// each entry the lowering of one typed rule beside its hit counter.
func TestDumpFlows(t *testing.T) {
	sw, fps, env := newSUT(2)
	_ = sw.CrossConnect(0, 1)
	m := switchtest.Meter(env)
	fps[0].In = append(fps[0].In, switchtest.Frame(env.Pool, pkt.MAC{2, 0, 0, 0, 0, 1}, pkt.MAC{2, 0, 0, 0, 0, 2}, 64))
	switchtest.PollUntilIdle(sw, m, 0)
	rules := sw.Rules()
	if len(rules) != 2 {
		t.Fatalf("rules = %d", len(rules))
	}
	for i, want := range []struct {
		rule switchdef.Rule
		hits int64
	}{{rule(0, inPort(0), output(1)), 1}, {rule(0, inPort(1), output(0)), 0}} {
		low, err := lowerRule(want.rule)
		if err != nil {
			t.Fatal(err)
		}
		got := rules[i]
		if got.Priority != low.Priority || got.Mask != low.Mask || got.Match != low.Match ||
			!slices.Equal(got.Actions, low.Actions) || got.Hits != want.hits {
			t.Fatalf("entry %d: %+v, want the lowering of %s with %d hits", i, got, want.rule.Key(), want.hits)
		}
	}
}

// Property: key pack/mask arithmetic — masked keys are idempotent and
// packing is injective for distinct in_port/MAC combinations.
func TestPropertyMaskIdempotent(t *testing.T) {
	f := func(inPort uint16, dst, src [6]byte, maskBytes [keyLen]byte) bool {
		k := FlowKey{InPort: inPort, EthDst: pkt.MAC(dst), EthSrc: pkt.MAC(src)}
		full := k.pack()
		m := mask(maskBytes)
		once := m.apply(full)
		twice := m.apply(once)
		return once == twice
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// vlanFrame builds a 64 B frame and inserts an 802.1Q tag after the MACs.
func vlanFrame(env switchdef.Env, vid uint16) *pkt.Buf {
	b := switchtest.Frame(env.Pool, pkt.MAC{2, 0, 0, 0, 0, 1}, pkt.MAC{2, 0, 0, 0, 0, 2}, 64)
	b.SetLen(64 + pkt.VLANTagLen)
	data := b.Bytes()
	copy(data[12+pkt.VLANTagLen:], data[12:64])
	binary.BigEndian.PutUint16(data[12:], pkt.EtherTypeVLAN)
	binary.BigEndian.PutUint16(data[14:], vid)
	return b
}

func TestVLANMatchDistinguishesTags(t *testing.T) {
	sw, fps, env := newSUT(3)
	vlan := func(vid uint16) switchdef.Match {
		return switchdef.Match{Fields: switchdef.FInPort | switchdef.FVLAN, InPort: 0, VLAN: vid}
	}
	install(t, sw, rule(0, vlan(10), output(1)), rule(0, vlan(20), output(2)))
	m := switchtest.Meter(env)
	fps[0].In = append(fps[0].In, vlanFrame(env, 10), vlanFrame(env, 20))
	// Untagged frame matches neither rule.
	fps[0].In = append(fps[0].In, switchtest.Frame(env.Pool, pkt.MAC{2, 0, 0, 0, 0, 1}, pkt.MAC{2, 0, 0, 0, 0, 2}, 64))
	switchtest.PollUntilIdle(sw, m, 0)
	if len(fps[1].Out) != 1 || len(fps[2].Out) != 1 {
		t.Fatalf("out = %d, %d", len(fps[1].Out), len(fps[2].Out))
	}
	if sw.NoMatch != 1 {
		t.Fatalf("untagged frame matched: nomatch=%d", sw.NoMatch)
	}
}

// TestMegaflowDoesNotShadowHigherPriority is the unwildcarding regression:
// a cached low-priority decision must never swallow packets that the full
// table would give to a higher-priority rule with a different mask.
func TestMegaflowDoesNotShadowHigherPriority(t *testing.T) {
	sw, fps, env := newSUT(3)
	special := pkt.MAC{2, 0, 0, 0, 0, 0x99}
	install(t, sw,
		rule(10, switchdef.Match{Fields: switchdef.FEthDst, EthDst: special}, output(2)),
		rule(1, inPort(0), output(1)))
	m := switchtest.Meter(env)
	// First: an ordinary packet takes the low-priority port rule and
	// installs a megaflow.
	fps[0].In = append(fps[0].In, switchtest.Frame(env.Pool, pkt.MAC{2, 0, 0, 0, 0, 1}, pkt.MAC{2, 0, 0, 0, 0, 2}, 64))
	switchtest.PollUntilIdle(sw, m, 0)
	if len(fps[1].Out) != 1 {
		t.Fatalf("plain packet out = %d", len(fps[1].Out))
	}
	// Then: same in_port, but the special destination — must go to the
	// high-priority rule's port even though a megaflow exists for the
	// in_port rule.
	fps[0].In = append(fps[0].In, switchtest.Frame(env.Pool, pkt.MAC{2, 0, 0, 0, 0, 1}, special, 64))
	switchtest.PollUntilIdle(sw, m, 1)
	if len(fps[2].Out) != 1 {
		t.Fatalf("special packet misforwarded: out1=%d out2=%d", len(fps[1].Out), len(fps[2].Out))
	}
}

// refClassify is the straightforward highest-priority-match reference.
func refClassify(rules []*Rule, full packedKey) *Rule {
	var best *Rule
	for _, r := range rules {
		if r.Mask.apply(full) == r.Match && r.beats(best) {
			best = r
		}
	}
	return best
}

// TestPropertyCachedClassifierMatchesReference drives random typed rule
// programs and packet sequences through the full three-tier pipeline and
// checks every decision against the reference classifier — caches must be
// transparent.
func TestPropertyCachedClassifierMatchesReference(t *testing.T) {
	fields := []switchdef.FieldSet{switchdef.FInPort, switchdef.FEthDst, switchdef.FEthSrc, switchdef.FL4Dst, switchdef.FIPProto}
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		env := switchtest.Env()
		sw := New(env)
		for i := 0; i < 4; i++ {
			sw.AddPort(switchtest.NewFakePort("p"))
		}
		// Random rules over random field subsets.
		nRules := 1 + rng.Intn(8)
		for i := 0; i < nRules; i++ {
			var m switchdef.Match
			for _, fd := range fields {
				if !rng.Bernoulli(0.4) {
					continue
				}
				m.Fields |= fd
				switch fd {
				case switchdef.FInPort:
					m.InPort = rng.Intn(3)
				case switchdef.FEthDst:
					m.EthDst = pkt.MAC{2, 0, 0, 0, 0, byte(rng.Intn(4))}
				case switchdef.FEthSrc:
					m.EthSrc = pkt.MAC{2, 0, 0, 0, 1, byte(rng.Intn(4))}
				case switchdef.FL4Dst:
					m.L4Dst = uint16(2000 + rng.Intn(3))
				case switchdef.FIPProto:
					m.IPProto = 17
				}
			}
			if err := sw.Install(rule(1+rng.Intn(20), m, output(rng.Intn(4)))); err != nil {
				return false
			}
		}
		// Random packet keys, repeated to exercise EMC and megaflow hits.
		m := switchtest.Meter(env)
		for i := 0; i < 300; i++ {
			key := FlowKey{
				InPort:  uint16(rng.Intn(3)),
				EthDst:  pkt.MAC{2, 0, 0, 0, 0, byte(rng.Intn(4))},
				EthSrc:  pkt.MAC{2, 0, 0, 0, 1, byte(rng.Intn(4))},
				EthType: pkt.EtherTypeIPv4,
				IPProto: 17,
				L4Dst:   uint16(2000 + rng.Intn(3)),
			}
			full := key.pack()
			got := sw.classify(m, &full, keyHash(&full))
			want := refClassify(sw.Rules(), full)
			if got != want {
				return false
			}
			m.Drain()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
