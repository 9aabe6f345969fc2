package conformance

import (
	"slices"
	"testing"

	"repro/internal/pkt"
	"repro/internal/switches/switchdef"
	"repro/internal/switches/switchtest"
	"repro/internal/units"
)

// programmable returns the registered switches whose data plane takes
// runtime rules, in name order.
func programmable() []string {
	return slices.DeleteFunc(switchdef.Names(), func(name string) bool {
		info, _ := switchdef.Lookup(name)
		return !info.RuntimeRules
	})
}

// steerRule is the rule that decides where a frame entering port 0 for
// PortMAC(1) leaves: an in_port rule on the port-patching switches, the
// dmac entry for PortMAC(1) on t4p4s. CrossConnect(0, 1) installs it with
// output 1.
func steerRule(name string, out int) switchdef.Rule {
	m := switchdef.Match{Fields: switchdef.FInPort, InPort: 0}
	if name == "t4p4s" {
		m = switchdef.Match{Fields: switchdef.FEthDst, EthDst: switchdef.PortMAC(1)}
	}
	return switchdef.Rule{Match: m, Actions: []switchdef.RuleAction{{Kind: switchdef.RuleOutput, Port: out}}}
}

// junkRevoke is r's identity with every field r leaves unconstrained set
// to junk and no actions.
func junkRevoke(r switchdef.Rule) switchdef.Rule {
	m := switchdef.Match{
		Fields: r.Match.Fields, InPort: 7,
		EthDst: pkt.MAC{2, 9, 9, 9, 9, 9}, EthSrc: pkt.MAC{2, 8, 8, 8, 8, 8},
		EthType: 0x86dd, VLAN: 42, IPSrc: [4]byte{192, 0, 2, 1}, IPDst: [4]byte{192, 0, 2, 2},
		IPProto: 6, L4Src: 53, L4Dst: 443,
	}
	if r.Match.Fields&switchdef.FEthDst != 0 {
		m.EthDst = r.Match.EthDst
	}
	if r.Match.Fields&switchdef.FInPort != 0 {
		m.InPort = r.Match.InPort
	}
	return switchdef.Rule{Priority: r.Priority, Match: m}
}

// TestRevokeContract pins what Revoke answers on every programmable
// switch the registry names, from the tables its data plane looks up: an
// identity is effective priority plus the constrained fields, a revoke of
// an absent identity errors, and a re-install replaces the rule in place.
func TestRevokeContract(t *testing.T) {
	names := programmable()
	if want := []string{"fastclick", "ovs", "t4p4s", "vpp"}; !slices.Equal(names, want) {
		t.Errorf("the registry's programmable switches are %v, want %v", names, want)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			p, err := newPass(name, script{stray: true}, false)
			if err != nil {
				t.Fatal(err)
			}
			sw, env, fps := p.sw, p.env, p.ports
			install := func(r switchdef.Rule) {
				t.Helper()
				if err := sw.Install(r); err != nil {
					t.Fatal(err)
				}
			}

			// (a) An identity never installed is absent.
			if err := sw.Revoke(shadowDropRule(1)); err == nil {
				t.Error("(a) revoke of a never-installed rule succeeded")
			}

			// (b) A second revoke of the same identity errors.
			install(shadowDropRule(1))
			if err := sw.Revoke(shadowDropRule(1)); err != nil {
				t.Fatalf("(b) first revoke: %v", err)
			}
			if err := sw.Revoke(shadowDropRule(1)); err == nil {
				t.Error("(b) second revoke succeeded")
			}

			// (c) Junk in the unconstrained fields does not change the
			// identity: the revoke removes the rule.
			install(shadowDropRule(2))
			if err := sw.Revoke(junkRevoke(shadowDropRule(2))); err != nil {
				t.Fatalf("(c) revoke with junk in unconstrained fields: %v", err)
			}
			if err := sw.Revoke(shadowDropRule(2)); err == nil {
				t.Error("(c) the rule survived the junk-field revoke")
			}

			// (d) Another effective priority is another identity.
			install(shadowDropRule(3))
			other := shadowDropRule(3)
			other.Priority = 7
			if err := sw.Revoke(other); err == nil {
				t.Error("(d) revoke at priority 7 removed a default-priority rule")
			}
			if err := sw.Revoke(shadowDropRule(3)); err != nil {
				t.Errorf("(d) the rule did not survive the other-priority revoke: %v", err)
			}

			// (e) Re-installing an identity with a new output replaces it:
			// frames follow the new output, none the old one.
			install(steerRule(name, 2))
			const frames = 4
			for i := 0; i < frames; i++ {
				fps[0].In = append(fps[0].In, switchtest.Frame(env.Pool, switchdef.PortMAC(0), switchdef.PortMAC(1), 64))
			}
			m, now := switchtest.Meter(env), units.Time(0)
			for i := 0; i < 8; i++ { // long steps fire t4p4s's HAL drain timer
				sw.Poll(now, m)
				now += m.Drain() + 100*units.Microsecond
			}
			if len(fps[1].Out) != 0 || len(fps[2].Out) != frames {
				t.Errorf("(e) after re-install: port 1 got %d frames, port 2 %d, want 0 and %d",
					len(fps[1].Out), len(fps[2].Out), frames)
			}
		})
	}
}

// TestRevokeByKey: Programmer identifies the rule to revoke by Key() —
// priority and match — so a rule value carrying only the match must
// remove the installed rule on every programmable switch: revoking the
// full rule afterwards finds nothing.
func TestRevokeByKey(t *testing.T) {
	for _, name := range programmable() {
		t.Run(name, func(t *testing.T) {
			p, err := newPass(name, script{}, false)
			if err != nil {
				t.Fatal(err)
			}
			r := shadowDropRule(1)
			if err := p.sw.Install(r); err != nil {
				t.Fatal(err)
			}
			if err := p.sw.Revoke(switchdef.Rule{Match: r.Match}); err != nil {
				t.Fatalf("Revoke by match alone: %v", err)
			}
			if err := p.sw.Revoke(r); err == nil {
				t.Error("the rule survived the revoke by match alone")
			}
		})
	}
}
