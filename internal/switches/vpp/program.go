package vpp

import (
	"fmt"

	"repro/internal/switches/switchdef"
)

// VPP's Programmer lowers typed rules onto its two runtime-configurable
// surfaces: in_port → output rules become l2patch entries (what the
// paper's "test l2patch rx portN tx portM" sets), and destination-MAC
// drop rules become a feature-arc drop list consulted on the patch path
// only while non-empty. VPP caches no classification, so nothing needs
// invalidating — the patch table and ACL are read per dispatch. The
// two tables are the whole program: a rule's identity is its field set
// (in_port alone or dl_dst alone) plus that field's value, at the one
// priority l2patch knows.

// Install implements switchdef.Programmer.
func (sw *Switch) Install(r switchdef.Rule) error {
	if r.Priority != 0 && r.Priority != switchdef.DefaultRulePriority {
		return fmt.Errorf("vpp: l2patch rules carry no priority")
	}
	switch {
	case r.Match.Fields == switchdef.FInPort &&
		len(r.Actions) == 1 && r.Actions[0].Kind == switchdef.RuleOutput:
		rx, tx := r.Match.InPort, r.Actions[0].Port
		if err := sw.checkPort(rx); err != nil {
			return err
		}
		if err := sw.checkPort(tx); err != nil {
			return err
		}
		sw.patchTo[rx] = tx
	case r.Match.Fields == switchdef.FEthDst &&
		len(r.Actions) == 1 && r.Actions[0].Kind == switchdef.RuleDrop:
		if sw.acl == nil {
			sw.acl = make(map[uint64]bool)
		}
		sw.acl[r.Match.EthDst.Key()] = true
	default:
		return fmt.Errorf("vpp: unsupported rule (want in_port→output or dl_dst→drop)")
	}
	return nil
}

// Revoke implements switchdef.Programmer: the rule is present when its
// port has a patch or its destination is on the drop list.
func (sw *Switch) Revoke(r switchdef.Rule) error {
	m := r.Match
	if r.EffectivePriority() == switchdef.DefaultRulePriority {
		switch {
		case m.Fields == switchdef.FInPort && sw.checkPort(m.InPort) == nil && sw.patchTo[m.InPort] >= 0:
			sw.patchTo[m.InPort] = -1
			return nil
		case m.Fields == switchdef.FEthDst && sw.acl[m.EthDst.Key()]:
			delete(sw.acl, m.EthDst.Key())
			return nil
		}
	}
	return fmt.Errorf("vpp: revoke of absent rule")
}
